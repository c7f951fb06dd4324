//! Glue between the disk engines and the `rim-phys` SINR model.
//!
//! Re-exports the physical-layer surface so downstream crates (sim,
//! cli, bench) reach it through `rim_core::physical` without declaring
//! their own `rim-phys` dependency. The physical model is a model
//! parameter ([`PhysModel`]), not an [`crate::receiver::Engine`]: the
//! CLI reaches it through `rim analyze --phy`.

pub use rim_phys::{
    build_phys_index, coverage_range, coverage_vector_indexed, coverage_vector_naive,
    db_to_linear, dbm_to_mw, mw_to_dbm, physical_interference_vector_with,
    sinr_interference_indexed, sinr_interference_naive, sinr_interference_with, standard_normal,
    PhysModel, PhysParams, SinrTable,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::interference_vector_naive;
    use rim_udg::{NodeSet, Topology};

    /// The disk-limit theorem (`DESIGN.md` §11) on a chain: both
    /// coverage kernels over [`PhysModel::disk_equivalent`] reproduce
    /// the disk oracle.
    #[test]
    fn disk_limit_vector_matches_the_oracle_on_a_chain() {
        let t = Topology::from_pairs(
            NodeSet::on_line(&[0.0, 0.3, 0.6, 0.9]),
            &[(0, 1), (1, 2), (2, 3)],
        );
        let oracle = interference_vector_naive(&t);
        let m = PhysModel::disk_equivalent(&t);
        for indexed in [false, true] {
            assert_eq!(physical_interference_vector_with(&m, indexed), oracle);
        }
    }
}
