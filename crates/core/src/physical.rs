//! Glue between the disk engines and the `rim-phys` SINR model.
//!
//! Re-exports the physical-layer surface so downstream crates (sim,
//! cli, bench) reach it through `rim_core::physical` without declaring
//! their own `rim-phys` dependency. The physical model is a model
//! parameter ([`PhysModel`]), not an [`crate::receiver::Engine`]: the
//! CLI reaches it through `rim analyze --phy`.
//!
//! Each physical quantity has one fast kernel and one `O(n²)` oracle:
//! [`physical_interference_vector`] / [`coverage_vector_naive`] for the
//! θ-coverage counts and [`sinr_interference`] /
//! [`sinr_interference_naive`] for the SINR sums. The fast kernels and
//! [`SinrTable::of`] run on `rim_geom::for_each_covered`, the scatter
//! that also builds the simulator's disk coverage lists.

pub use rim_phys::{
    coverage_range, coverage_vector_naive, db_to_linear, dbm_to_mw, mw_to_dbm,
    physical_interference_vector, sinr_interference, sinr_interference_naive, standard_normal,
    PhysModel, PhysParams, SinrTable,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::interference_vector_naive;
    use rim_udg::{NodeSet, Topology};

    /// The disk-limit theorem (`DESIGN.md` §11) on a chain: the naive
    /// and the index-backed coverage kernels over
    /// [`PhysModel::disk_equivalent`] reproduce the disk oracle.
    #[test]
    fn disk_limit_vector_matches_the_oracle_on_a_chain() {
        let t = Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        );
        let oracle = interference_vector_naive(&t);
        let m = PhysModel::disk_equivalent(&t);
        assert_eq!(coverage_vector_naive(&m), oracle);
        assert_eq!(physical_interference_vector(&m), oracle);
    }
}
