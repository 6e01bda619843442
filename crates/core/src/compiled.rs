//! The compiled form of one Colog source, shared by every instance, grounding
//! plan and deployment built from it.

use std::sync::Arc;

use cologne_colog::{analyze, localize_rules, parse_program, Analysis, Program, SchemaCatalog};

use crate::error::CologneError;

/// One Colog source after the parameter-free front end: the localized
/// program, its static analysis and the derived relation schemas. Built once
/// per source and shared behind an `Arc`; everything that reads parameter
/// constants (rule translation, grounding plans) is built per instance from
/// it.
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    pub(crate) program: Program,
    pub(crate) analysis: Analysis,
    pub(crate) catalog: SchemaCatalog,
}

impl CompiledProgram {
    /// Parse, localize (Sec. 5.5), analyze and derive the schema catalog.
    pub(crate) fn compile(source: &str) -> Result<Arc<Self>, CologneError> {
        let parsed = parse_program(source)?;
        let program = Program {
            rules: localize_rules(&parsed.rules)?,
            ..parsed
        };
        let analysis = analyze(&program)?;
        let catalog = SchemaCatalog::derive(&program, &analysis);
        Ok(Arc::new(CompiledProgram {
            program,
            analysis,
            catalog,
        }))
    }
}
