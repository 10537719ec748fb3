//! Beyond the per-coordinate Objective layer.
//!
//! §I: "stochastic coordinate methods are used in the field of machine
//! learning to solve other problems such as regression with elastic net
//! regularization as well as support vector machines." The hinge-loss SVM
//! and logistic regression run on every engine through
//! [`crate::ObjectiveKind`]; what remains here is the one problem whose
//! compound prox has no `Objective` implementation yet:
//!
//! * [`elastic_net`] — coordinate descent with soft-thresholding for
//!   L1+L2-regularized least squares (the lasso at ρ=1, ridge at ρ=0).

pub mod elastic_net;

pub use elastic_net::ElasticNetCd;
