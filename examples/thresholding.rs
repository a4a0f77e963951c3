//! Thresholding: the UPC feature the paper highlights for dynamic
//! feedback — "raising an interrupt when specific counters reach
//! corresponding thresholds … provides feedback to the various system
//! optimization tasks like data placements".
//!
//! ```text
//! cargo run --release --example thresholding
//! ```
//!
//! A worker walks an array with a cache-hostile stride while an L1-miss
//! threshold is armed. When the interrupt fires, the "runtime" reacts by
//! switching to a sequential layout — and the miss rate collapses. The
//! threshold is armed, and the final state read, through the
//! memory-mapped register file, the way a system-service monitoring
//! thread would.

use bgp::arch::events::{CoreEvent, CounterMode};
use bgp::arch::OpMode;
use bgp::mpi::{CounterPolicy, JobSpec, Machine};
use bgp::upc::regfile::{RegFile, OFF_CONFIGS, OFF_CONTROL, OFF_THRESHOLDS};
use bgp::upc::CounterConfig;

fn main() {
    let mut spec = JobSpec::new(1, OpMode::Smp1);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = Machine::new(spec);

    // Arm a threshold on core 0's L1-D miss counter with three stores
    // to the unit's register map: the slot's config, its threshold, and
    // the control register (enable, mode 0).
    let miss_slot = CoreEvent::L1dMiss.id(0).slot().0;
    const THRESHOLD: u64 = 20_000;
    machine.with_node(0, |node| {
        let mut rf = RegFile::new(node.upc_mut());
        let irq = CounterConfig {
            interrupt_enable: true,
            ..Default::default()
        };
        let slot = 8 * miss_slot as u64;
        assert!(rf.store(OFF_CONFIGS + slot, irq.to_bits() as u64));
        assert!(rf.store(OFF_THRESHOLDS + slot, THRESHOLD));
        assert!(rf.store(OFF_CONTROL, 1));
    });

    let m2 = machine.clone();
    machine.run(move |mut ctx| {
        let m2 = m2.clone();
        async move {
            let ctx = &mut ctx;
            let n = 1 << 16; // 64Ki doubles = 512 KB, far beyond L1
            let v = ctx.alloc::<f64>(n);
            let mut layout_bad = true;
            let mut touched = 0u64;
            let mut switched_at = None;
            let stride = 577; // pseudo-random walk, misses constantly
            let mut pos = 0usize;
            for step in 0..200_000u64 {
                if layout_bad {
                    pos = (pos + stride) % n;
                } else {
                    pos = (pos + 1) % n;
                }
                let _ = ctx.ld(&v, pos).await;
                touched += 1;
                // Poll the interrupt queue every once in a while, like a
                // monitoring thread woken by the UPC interrupt line.
                if step % 1024 == 0 && layout_bad {
                    let irqs = m2.with_node(0, |node| node.upc_mut().take_interrupts());
                    if let Some(irq) = irqs.first() {
                        println!(
                            "threshold interrupt: {} reached {} (threshold {}) after {} accesses",
                            irq.event.name(),
                            irq.value,
                            irq.threshold,
                            touched
                        );
                        layout_bad = false;
                        switched_at = Some(touched);
                    }
                }
            }
            let switched_at = switched_at.expect("the stride walk must trip the threshold");
            println!("switched to streaming layout after {switched_at} accesses");
        }
    });

    // Inspect the final state through the memory-mapped register file,
    // like a system service would.
    machine.with_node(0, |node| {
        let misses = node.upc().read(miss_slot);
        let mut rf = RegFile::new(node.upc_mut());
        let control = rf.load(OFF_CONTROL).expect("control register");
        println!("final L1-D miss counter  : {misses}");
        println!("UPC control register     : {control:#x} (enabled, mode 0)");
        let s = node.mem_stats();
        println!(
            "ground truth: {} hits / {} misses ({:.1}% miss rate over the whole run)",
            s.l1d_hits,
            s.l1d_misses,
            100.0 * s.l1d_misses as f64 / (s.l1d_hits + s.l1d_misses) as f64
        );
    });
}
