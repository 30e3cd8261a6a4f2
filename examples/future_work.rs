//! The paper's §6 future work on imperfect timestamps: "clocks in
//! sensors are noisy and message delays may be significant and random.
//! The fusion engine must wait long enough after time t". Push randomly
//! delayed events through a watermark reorder buffer at several wait
//! settings and report the false-negative (late event) rate for each.
//!
//! ```sh
//! cargo run --example future_work
//! ```

use event_correlation::events::reorder::{DelayModel, ReorderBuffer};
use event_correlation::events::{Timestamp, Value};

fn main() {
    println!("== Noisy delivery and watermarks (§6) ==");
    // Sensors report every 100 µs; network delay is uniform 0–500 µs.
    // Sweep the engine's wait and measure the late-event rate.
    for wait in [100u64, 250, 500, 750] {
        let mut model = DelayModel::uniform(0, 500, 7);
        let mut buf = ReorderBuffer::new(wait);
        let mut deliveries: Vec<_> = (0..2_000u64)
            .map(|i| model.deliver(Timestamp(i * 100), Value::Int(i as i64)))
            .collect();
        deliveries.sort_by_key(|e| e.arrival);
        let mut phases = 0usize;
        for e in deliveries {
            phases += buf.advance(e.arrival).len();
            buf.offer(e.generated, e.value);
        }
        phases += buf.flush().len();
        println!(
            "  wait {wait:>3} µs: {phases:>4} phases closed, \
             late-event rate {:.3} (potential false negatives)",
            buf.late_fraction()
        );
    }
    println!("  → waiting past the maximum delay eliminates late events;");
    println!("    shorter waits trade correctness for latency, as §6 anticipates.");
}
