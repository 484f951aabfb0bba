//! The five workloads. Each drives the system only through public
//! functions, from one thread, closed loop with one caller.

pub mod admit;
pub mod approval;
pub mod fleet;
