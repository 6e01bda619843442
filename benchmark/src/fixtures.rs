//! Seeded input generators. `--seed` reaches only this file: the crates under
//! measurement receive the generated facts, never the seed.

use cologne::datalog::{Tuple, Value};
use cologne::{CologneInstance, SolveReport};

/// SplitMix64: small, fast and reproducible on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so each round and
    /// each client of a run draws its own inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (the slight modulo bias is irrelevant here).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn index(&mut self, len: usize) -> usize {
        self.range(0, len as i64) as usize
    }
}

fn ints<const N: usize>(row: [i64; N]) -> Tuple {
    row.into_iter().map(Value::Int).collect()
}

fn int_at(row: &Tuple, i: usize) -> i64 {
    row[i].as_int().expect("integer column")
}

/// The benchmark's own copy of an ACloud tenant's base facts: the oracle the
/// output checks recompute placements and objectives from.
#[derive(Debug, Clone)]
pub struct Cloud {
    /// `vm(Vid, Cpu, Mem)`.
    pub vms: Vec<[i64; 3]>,
    /// `host(Hid, Cpu, _)` background load and `hostMemThres(Hid, Mem)`,
    /// as `[hid, background cpu, memory threshold]`.
    pub hosts: Vec<[i64; 3]>,
}

impl Cloud {
    /// `vms` VMs with cpu in `cpu.0..cpu.1` on `hosts` hosts with some
    /// background load. Every host can hold two thirds of all VM memory, so
    /// the memory constraint rules out only lopsided placements.
    pub fn generate(rng: &mut Rng, vms: usize, hosts: usize, cpu: (i64, i64)) -> Cloud {
        let vms: Vec<[i64; 3]> = (0..vms as i64)
            .map(|vid| [vid, rng.range(cpu.0, cpu.1), rng.range(1, 4)])
            .collect();
        let total_mem: i64 = vms.iter().map(|vm| vm[2]).sum();
        let hosts = (0..hosts as i64)
            .map(|h| [1000 + h, rng.range(0, 20), total_mem * 2 / 3 + 1])
            .collect();
        Cloud { vms, hosts }
    }

    /// Read the facts back out of an instance another generator filled.
    pub fn of_instance(instance: &CologneInstance) -> Cloud {
        let mut vms: Vec<[i64; 3]> = instance
            .scan("vm")
            .map(|r| [int_at(r, 0), int_at(r, 1), int_at(r, 2)])
            .collect();
        vms.sort_unstable();
        let mut hosts: Vec<[i64; 3]> = instance
            .scan("host")
            .map(|r| [int_at(r, 0), int_at(r, 1), 0])
            .collect();
        hosts.sort_unstable();
        for thres in instance.scan("hostMemThres") {
            let host = hosts
                .iter_mut()
                .find(|h| h[0] == int_at(thres, 0))
                .expect("threshold names a host");
            host[2] = int_at(thres, 1);
        }
        Cloud { vms, hosts }
    }

    pub fn vm_row(&self, index: usize) -> Tuple {
        ints(self.vms[index])
    }

    /// Every base fact as `(relation, tuple)`.
    pub fn base_facts(&self) -> Vec<(&'static str, Tuple)> {
        let mut facts: Vec<(&'static str, Tuple)> = (0..self.vms.len())
            .map(|i| ("vm", self.vm_row(i)))
            .collect();
        for h in &self.hosts {
            facts.push(("host", ints([h[0], h[1], 0])));
            facts.push(("hostMemThres", ints([h[0], h[2]])));
        }
        facts
    }

    /// Install the base facts into a fresh instance.
    pub fn load(&self, instance: &mut CologneInstance) {
        for (relation, tuple) in self.base_facts() {
            instance
                .relation(relation)
                .expect("ACloud relation")
                .insert(tuple)
                .expect("fact matches the schema");
        }
    }

    /// Give VM `index` a new cpu demand; returns its `(old, new)` rows.
    pub fn set_cpu(&mut self, index: usize, cpu: i64) -> (Tuple, Tuple) {
        let old = self.vm_row(index);
        self.vms[index][1] = cpu;
        (old, self.vm_row(index))
    }

    /// Check a solved placement against this copy of the facts: every VM on
    /// exactly one host, no host over its memory threshold, and the reported
    /// objective equal to the scaled cpu variance `n·Σx² − (Σx)²` recomputed
    /// from the placement.
    pub fn verify(&self, report: &SolveReport) -> Result<(), String> {
        let mut placed = vec![0u32; self.vms.len()];
        let mut cpu: Vec<i64> = self.hosts.iter().map(|h| h[1]).collect();
        let mut mem = vec![0i64; self.hosts.len()];
        for row in report.table("assign") {
            if int_at(row, 2) == 0 {
                continue;
            }
            let vm = self
                .vms
                .binary_search_by_key(&int_at(row, 0), |vm| vm[0])
                .map_err(|_| format!("assign names unknown vm {:?}", row[0]))?;
            let host = self
                .hosts
                .binary_search_by_key(&int_at(row, 1), |h| h[0])
                .map_err(|_| format!("assign names unknown host {:?}", row[1]))?;
            placed[vm] += 1;
            cpu[host] += self.vms[vm][1];
            mem[host] += self.vms[vm][2];
        }
        if let Some(vm) = placed.iter().position(|&n| n != 1) {
            return Err(format!(
                "vm {} placed {} times",
                self.vms[vm][0], placed[vm]
            ));
        }
        if let Some(h) = (0..mem.len()).find(|&h| mem[h] > self.hosts[h][2]) {
            return Err(format!(
                "host {} holds {} memory over its threshold {}",
                self.hosts[h][0], mem[h], self.hosts[h][2]
            ));
        }
        let n = cpu.len() as i64;
        let sum: i64 = cpu.iter().sum();
        let variance = n * cpu.iter().map(|x| x * x).sum::<i64>() - sum * sum;
        if report.objective != Some(variance) {
            return Err(format!(
                "objective {:?} but the placement's scaled variance is {variance}",
                report.objective
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Cloud::generate(&mut Rng::new(7, 0), 8, 3, (10, 81));
        let b = Cloud::generate(&mut Rng::new(7, 0), 8, 3, (10, 81));
        let c = Cloud::generate(&mut Rng::new(8, 0), 8, 3, (10, 81));
        let d = Cloud::generate(&mut Rng::new(7, 1), 8, 3, (10, 81));
        assert_eq!(a.vms, b.vms);
        assert_eq!(a.hosts, b.hosts);
        assert_ne!(a.vms, c.vms);
        assert_ne!(a.vms, d.vms);
        assert!(a.vms.iter().all(|vm| (10..81).contains(&vm[1])));
    }
}
