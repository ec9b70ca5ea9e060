//! # pphw-apps — the paper's benchmark suite (Table 5)
//!
//! The six data-analytics applications the paper evaluates: vector outer
//! product, matrix row summation, matrix multiplication, TPC-H Query 6,
//! Gaussian discriminant analysis, and k-means clustering. Each program
//! is its PPL text under `examples/` (`examples/gemm.ppl`, …): the file is
//! compiled into this crate as a [`Ppl`], parsed at most once per process,
//! and every accessor returns a clone of that parse. Beside each program
//! live its Table 5 sizes and tiles, a seeded workload generator and a
//! plain-Rust golden implementation used to validate every compiled
//! configuration. The Table 2 examples that are not benchmarks
//! ([`simple::doubling_program`], [`simple::sumrows_fused_program`],
//! [`simple::histogram_program`], [`tpchq6::tpchq6_filter_program`]) are
//! `.ppl` files loaded the same way.

use std::sync::OnceLock;

use pphw::CompileOptions;
use pphw_frontend::{parse_program, ParseOutput};
use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

/// The [`Ppl`] of `examples/<name>.ppl`.
macro_rules! ppl {
    ($name:literal) => {
        $crate::Ppl::new(
            concat!("examples/", $name, ".ppl"),
            include_str!(concat!("../../../examples/", $name, ".ppl")),
        )
    };
}

pub mod data;
pub mod gda;
pub mod kmeans;
pub mod simple;
pub mod tpchq6;

/// A program file under `examples/`, compiled into this crate and parsed
/// at most once per process.
pub struct Ppl {
    /// The file's path from the repository root; diagnostics cite it.
    file: &'static str,
    /// The file's text.
    pub text: &'static str,
    parsed: OnceLock<ParseOutput>,
}

impl Ppl {
    const fn new(file: &'static str, text: &'static str) -> Ppl {
        Ppl {
            file,
            text,
            parsed: OnceLock::new(),
        }
    }

    /// The file's program and source map, parsed on first use.
    ///
    /// # Panics
    ///
    /// If the file does not parse (`tests/frontend_roundtrip.rs` parses
    /// every one).
    pub fn parsed(&self) -> &ParseOutput {
        self.parsed.get_or_init(|| {
            parse_program(self.text, self.file).unwrap_or_else(|errs| {
                let shown: Vec<String> = errs
                    .iter()
                    .map(|e| e.render(self.text, self.file))
                    .collect();
                panic!("{}", shown.join("\n"))
            })
        })
    }

    /// A clone of the parsed program.
    pub(crate) fn program(&self) -> Program {
        self.parsed().program.clone()
    }
}

/// One benchmark: program, workload, and reference semantics.
pub struct BenchSpec {
    /// Benchmark name (Table 5 row).
    pub name: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Major collections operations, as listed in Table 5.
    pub collections_ops: &'static str,
    /// The `.ppl` file the program is parsed from.
    pub source: &'static Ppl,
    /// The PPL program: a clone of `source`'s parse.
    pub program: fn() -> Program,
    /// Default workload sizes.
    pub sizes: fn() -> Vec<(&'static str, i64)>,
    /// Default tile sizes.
    pub tiles: fn() -> Vec<(&'static str, i64)>,
    /// Seeded input generation.
    pub inputs: fn(&SizeEnv, u64) -> Vec<Value>,
    /// Reference implementation.
    pub golden: fn(&[Value], &SizeEnv) -> Vec<Value>,
    /// Innermost parallelism factor (constant across levels, §6.1).
    pub inner_par: u32,
    /// Extra parallelism for the metapipelined design, when the paper
    /// reports hand-parallelizing a stage (gda's outer product, §6.2).
    pub meta_par: Option<u32>,
}

impl BenchSpec {
    /// Convenience: default size pairs as a `SizeEnv`.
    pub fn env(&self) -> SizeEnv {
        pphw_ir::size::Size::env(&(self.sizes)())
    }

    /// The paper's configuration of this benchmark as compile options:
    /// Table 5 sizes and tiles, §6.1 parallelism, and the hand-parallelized
    /// stage override where §6.2 reports one.
    pub fn options(&self) -> CompileOptions {
        let mut opts = CompileOptions::new(&(self.sizes)())
            .tiles(&(self.tiles)())
            .inner_par(self.inner_par);
        if let Some(mp) = self.meta_par {
            opts = opts.meta_inner_par(mp);
        }
        opts
    }
}

/// All six benchmarks of Table 5, in the paper's order.
pub fn all_benchmarks() -> Vec<BenchSpec> {
    vec![
        BenchSpec {
            name: "outerprod",
            description: "Vector outer product",
            collections_ops: "map",
            source: &simple::OUTERPROD,
            program: simple::outerprod_program,
            sizes: simple::outerprod_sizes,
            tiles: simple::outerprod_tiles,
            inputs: simple::outerprod_inputs,
            golden: simple::outerprod_golden,
            inner_par: 64,
            meta_par: None,
        },
        BenchSpec {
            name: "sumrows",
            description: "Matrix summation through rows",
            collections_ops: "map, reduce",
            source: &simple::SUMROWS,
            program: simple::sumrows_program,
            sizes: simple::sumrows_sizes,
            tiles: simple::sumrows_tiles,
            inputs: simple::sumrows_inputs,
            golden: simple::sumrows_golden,
            inner_par: 64,
            meta_par: None,
        },
        BenchSpec {
            name: "gemm",
            description: "Matrix multiplication",
            collections_ops: "map, reduce",
            source: &simple::GEMM,
            program: simple::gemm_program,
            sizes: simple::gemm_sizes,
            tiles: simple::gemm_tiles,
            inputs: simple::gemm_inputs,
            golden: simple::gemm_golden,
            inner_par: 64,
            meta_par: None,
        },
        BenchSpec {
            name: "tpchq6",
            description: "TPC-H Query 6",
            collections_ops: "filter, reduce",
            source: &tpchq6::TPCHQ6,
            program: tpchq6::tpchq6_program,
            sizes: tpchq6::tpchq6_sizes,
            tiles: tpchq6::tpchq6_tiles,
            inputs: tpchq6::tpchq6_inputs,
            golden: tpchq6::tpchq6_golden,
            inner_par: 64,
            meta_par: None,
        },
        BenchSpec {
            name: "gda",
            description: "Gaussian discriminant analysis",
            collections_ops: "map, filter, reduce",
            source: &gda::GDA,
            program: gda::gda_program,
            sizes: gda::gda_sizes,
            tiles: gda::gda_tiles,
            inputs: gda::gda_inputs,
            golden: gda::gda_golden,
            inner_par: 128,
            meta_par: Some(512),
        },
        BenchSpec {
            name: "kmeans",
            description: "k-means clustering",
            collections_ops: "map, groupBy, reduce",
            source: &kmeans::KMEANS,
            program: kmeans::kmeans_program,
            sizes: kmeans::kmeans_sizes,
            tiles: kmeans::kmeans_tiles,
            inputs: kmeans::kmeans_inputs,
            golden: kmeans::kmeans_golden,
            inner_par: 64,
            meta_par: None,
        },
    ]
}

/// The Table 5 benchmark called `name`.
///
/// # Errors
///
/// A message naming the unknown benchmark and listing the known ones.
pub fn benchmark(name: &str) -> Result<BenchSpec, String> {
    let found = all_benchmarks().into_iter().find(|s| s.name == name);
    found.ok_or_else(|| {
        let known: Vec<&str> = all_benchmarks().iter().map(|s| s.name).collect();
        format!("unknown benchmark `{name}`; known: {}", known.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks() {
        assert_eq!(all_benchmarks().len(), 6);
    }

    #[test]
    fn all_programs_validate() {
        for spec in all_benchmarks() {
            let prog = (spec.program)();
            prog.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", spec.name));
        }
    }
}
