//! # pphw-apps — the paper's benchmark suite (Table 5)
//!
//! The six data-analytics applications the paper evaluates, written in
//! PPL: vector outer product, matrix row summation, matrix multiplication,
//! TPC-H Query 6, Gaussian discriminant analysis, and k-means clustering —
//! plus seeded workload generators and plain-Rust golden implementations
//! used to validate every compiled configuration.

pub mod data;
pub mod gda;
pub mod kmeans;
pub mod simple;
pub mod tpchq6;

use pphw::CompileOptions;
use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

/// One benchmark: program constructor, workload, and reference semantics.
pub struct BenchSpec {
    /// Benchmark name (Table 5 row).
    pub name: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Major collections operations, as listed in Table 5.
    pub collections_ops: &'static str,
    /// Builds the PPL program.
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
