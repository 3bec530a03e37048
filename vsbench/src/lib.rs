//! End-to-end and per-layer benchmark of the vSensor pipeline on the
//! event scheduler: workloads built from a seed, the timed run and its
//! output checks, a transparent timing sink, the traced layer split, and
//! the host-speed reference.

pub mod layers;
pub mod measure;
pub mod sink;
pub mod speed;
pub mod workload;

/// The median of `values`; 0 for none.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}
