//! One module per table/figure of the paper's evaluation section, plus
//! ablation studies of two design choices ([`ablations`]). Every module exposes
//! `run(&ExperimentContext)`; the binaries in `src/bin/` are thin wrappers.

pub mod ablations;
pub mod accuracy;
pub mod fig10;
pub mod fig3_6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
