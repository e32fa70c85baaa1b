//! Compiles the default FLC1 and FLC2 decision surfaces (min/max Mamdani,
//! centroid, `DEFAULT_LATTICE_POINTS` per axis) from the same engine
//! definitions the library uses, and writes each surface's nodes to
//! `OUT_DIR` as a Rust array literal. The library bakes them in as a
//! `static` with `include!`, so a compiled default controller runs no
//! lattice fill at run time and borrows its nodes straight from the
//! binary. Each node is printed with `{:?}`, the shortest decimal that
//! parses back to the same `f64`, so the literal is exact.

use std::fmt::Write;
use std::path::PathBuf;

use facs_fuzzy::{CompiledSurface, InferenceConfig, DEFAULT_LATTICE_POINTS};

// Only the engine builders are needed here; the rest of each module is
// library API.
#[allow(dead_code)]
#[path = "src/tables.rs"]
mod tables;

#[allow(dead_code)]
#[path = "src/definitions.rs"]
mod definitions;

fn main() {
    for source in ["build.rs", "src/tables.rs", "src/definitions.rs"] {
        println!("cargo:rerun-if-changed={source}");
    }
    let out_dir = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let config = InferenceConfig::default();
    let engines =
        [("flc1", definitions::flc1::engine(config)), ("flc2", definitions::flc2::engine(config))];
    for (name, engine) in engines {
        let engine = engine.unwrap_or_else(|err| panic!("{name} engine: {err}"));
        let surface = CompiledSurface::compile(&engine, DEFAULT_LATTICE_POINTS)
            .unwrap_or_else(|err| panic!("{name} surface: {err}"));
        let mut literal = String::from("[\n");
        for node in surface.nodes() {
            writeln!(literal, "{node:?},").expect("writing to a String");
        }
        literal.push(']');
        let path = out_dir.join(format!("{name}_surface.rs"));
        std::fs::write(&path, literal)
            .unwrap_or_else(|err| panic!("writing {}: {err}", path.display()));
    }
}
