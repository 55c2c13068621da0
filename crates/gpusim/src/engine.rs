//! The pricing engine: turns a launch trace into cycles and seconds.
//!
//! The model is deliberately simple, explicit, and documented — every term
//! corresponds to one architectural effect the paper's evaluation hinges
//! on:
//!
//! ```text
//! wave_issue   = alu + transactions·tx_issue + lds_ops·lds_cost + barriers·barrier_cost
//! wave_latency = mem_rounds · mem_latency / occupancy        (latency hiding)
//! wave_cycles  = wave_issue + wave_latency
//! cu_cycles    = Σ (waves assigned to CU) / simd_per_cu      (throughput view)
//! kernel       = max( max_cu cu_cycles , total_bytes / BW )  (DRAM roofline)
//!                + launch_overhead
//! ```
//!
//! Work-groups are assigned to compute units greedily (least-loaded
//! first, deterministic order), which models the hardware's global
//! work-group dispatcher well enough for load-balance effects to show.

use crate::device::GpuDevice;
use crate::trace::{LaunchTracer, WorkgroupCost};

/// Priced result of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchStats {
    /// Total modelled cycles, including launch overhead.
    pub cycles: f64,
    /// `cycles` at the device clock.
    pub seconds: f64,
    /// Work-groups launched.
    pub workgroups: usize,
    /// Wavefronts launched.
    pub waves: usize,
    /// Vector ALU instructions.
    pub alu: u64,
    /// Memory transactions after coalescing.
    pub transactions: u64,
    /// Bytes read from DRAM (line-granular).
    pub bytes_read: u64,
    /// Bytes written to DRAM (line-granular).
    pub bytes_written: u64,
    /// LDS operations.
    pub lds_ops: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Wavefronts resident per SIMD used for latency hiding.
    pub occupancy: f64,
    /// Whether the DRAM roofline (rather than compute/latency) set the
    /// kernel time.
    pub bandwidth_bound: bool,
}

impl LaunchStats {
    /// Merge stats of several launches executed back-to-back (e.g. one
    /// launch per bin): cycles and counters add up.
    pub fn accumulate(&mut self, other: &LaunchStats) {
        self.cycles += other.cycles;
        self.seconds += other.seconds;
        self.workgroups += other.workgroups;
        self.waves += other.waves;
        self.alu += other.alu;
        self.transactions += other.transactions;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.lds_ops += other.lds_ops;
        self.barriers += other.barriers;
        self.bandwidth_bound |= other.bandwidth_bound;
        // Occupancy of the combination is the wave-weighted mean.
        if self.waves > 0 {
            let w_new = other.waves as f64;
            let w_old = (self.waves - other.waves) as f64;
            if w_old + w_new > 0.0 {
                self.occupancy =
                    (self.occupancy * w_old + other.occupancy * w_new) / (w_old + w_new);
            }
        }
    }

    /// Effective achieved bandwidth in GB/s (useful in reports).
    pub fn achieved_gbps(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        (self.bytes_read + self.bytes_written) as f64 / self.seconds / 1e9
    }

    /// Remove `matrix_bytes` of modelled matrix-stream traffic from this
    /// priced launch — the discount behind every format tier that moves
    /// fewer index bytes than the functional CSR pricing charged
    /// (structure-specialized traversals) and behind the non-leading columns of a register-blocked RHS
    /// block. Bytes and transactions scale by the kept fraction;
    /// cycles/seconds scale only when the launch was bandwidth-bound
    /// (compute-bound kernels do not run faster for moving fewer bytes).
    /// The keep fraction is floored at 1% so a launch never becomes free
    /// (output writes and `x`-gathers always remain).
    pub fn discount_traffic(&mut self, matrix_bytes: f64) {
        let traffic = (self.bytes_read + self.bytes_written) as f64;
        if traffic <= 0.0 {
            return;
        }
        let keep = ((traffic - matrix_bytes).max(0.0) / traffic).max(0.01);
        self.bytes_read = ((self.bytes_read as f64) * keep) as u64;
        self.transactions = ((self.transactions as f64) * keep) as u64;
        if self.bandwidth_bound {
            self.cycles *= keep;
            self.seconds *= keep;
        }
    }
}

/// Price a finished launch trace.
pub fn price(tracer: LaunchTracer<'_>) -> LaunchStats {
    let (device, workgroups) = tracer.into_parts();
    price_workgroups(device, &workgroups)
}

/// Price a slice of work-group costs on a device (the form used when
/// work-group traces were produced in parallel).
pub fn price_workgroups(device: &GpuDevice, workgroups: &[WorkgroupCost]) -> LaunchStats {
    let mut stats = LaunchStats {
        workgroups: workgroups.len(),
        ..Default::default()
    };

    let total_waves: usize = workgroups.iter().map(|wg| wg.waves.len()).sum();
    stats.waves = total_waves;

    let occupancy = occupancy(device, workgroups, total_waves);
    stats.occupancy = occupancy;

    // Per-work-group issue+latency cycles, summed over its waves (the
    // throughput view: a CU's SIMDs retire the waves' instruction streams).
    let mut cu_load = vec![0.0f64; device.cus];
    for wg in workgroups {
        let mut wg_cycles = 0.0;
        for w in &wg.waves {
            stats.alu += w.alu;
            stats.transactions += w.transactions;
            stats.bytes_read += w.bytes_read;
            stats.bytes_written += w.bytes_written;
            stats.lds_ops += w.lds_ops;
            stats.barriers += w.barriers;
            let issue = w.alu as f64
                + w.transactions as f64 * device.tx_issue_cycles as f64
                + w.lds_ops as f64 * device.lds_op_cycles as f64
                + w.barriers as f64 * device.barrier_cycles as f64;
            let latency = w.mem_rounds as f64 * device.mem_latency_cycles as f64 / occupancy;
            wg_cycles += issue + latency;
        }
        // Greedy least-loaded CU assignment.
        let cu = cu_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        cu_load[cu] += wg_cycles / device.simd_per_cu as f64;
    }

    let compute_cycles = cu_load.iter().fold(0.0f64, |m, &c| m.max(c));
    let bw_cycles = (stats.bytes_read + stats.bytes_written) as f64 / device.bytes_per_cycle();
    stats.bandwidth_bound = bw_cycles > compute_cycles;
    stats.cycles = compute_cycles.max(bw_cycles) + device.launch_overhead_cycles as f64;
    stats.seconds = device.cycles_to_seconds(stats.cycles);
    stats
}

/// Wavefronts resident per SIMD, bounded by the hardware cap, the LDS
/// budget, and the amount of work actually launched.
fn occupancy(device: &GpuDevice, workgroups: &[WorkgroupCost], total_waves: usize) -> f64 {
    if total_waves == 0 {
        return 1.0;
    }
    let simds = (device.cus * device.simd_per_cu) as f64;
    let work_limited = (total_waves as f64 / simds).max(1.0);
    // LDS bound: how many work-groups fit per CU.
    let max_lds = workgroups.iter().map(|wg| wg.lds_bytes).max().unwrap_or(0);
    let lds_limited = match device.lds_per_cu.checked_div(max_lds) {
        None => device.max_waves_per_simd as f64,
        Some(q) => {
            let wgs_per_cu = q.max(1);
            let avg_waves_per_wg = total_waves as f64 / workgroups.len() as f64;
            ((wgs_per_cu as f64 * avg_waves_per_wg) / device.simd_per_cu as f64).max(1.0)
        }
    };
    work_limited
        .min(lds_limited)
        .min(device.max_waves_per_simd as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::WaveCost;
    use crate::Region;

    fn device() -> GpuDevice {
        GpuDevice::kaveri()
    }

    fn wg_with_waves(device: &GpuDevice, n_waves: usize, cost: WaveCost) -> WorkgroupCost {
        let lt = LaunchTracer::new(device);
        let mut wg = lt.workgroup(0);
        for _ in 0..n_waves {
            wg.push_wave(cost);
        }
        wg.finish()
    }

    #[test]
    fn empty_launch_costs_only_the_dispatch() {
        let d = device();
        let s = price(LaunchTracer::new(&d));
        assert_eq!(s.cycles, d.launch_overhead_cycles as f64);
        assert_eq!(s.workgroups, 0);
        assert!(!s.bandwidth_bound);
    }

    #[test]
    fn more_transactions_cost_more() {
        let d = device();
        let cheap = wg_with_waves(
            &d,
            4,
            WaveCost {
                transactions: 10,
                ..Default::default()
            },
        );
        let dear = wg_with_waves(
            &d,
            4,
            WaveCost {
                transactions: 1000,
                ..Default::default()
            },
        );
        let a = price_workgroups(&d, &[cheap]);
        let b = price_workgroups(&d, &[dear]);
        assert!(b.cycles > a.cycles);
    }

    #[test]
    fn workgroups_spread_across_cus() {
        let d = device();
        let unit = wg_with_waves(
            &d,
            4,
            WaveCost {
                alu: 100_000,
                ..Default::default()
            },
        );
        let one = price_workgroups(&d, &vec![unit.clone(); 1]);
        let eight = price_workgroups(&d, &vec![unit.clone(); 8]);
        let nine = price_workgroups(&d, &vec![unit.clone(); 9]);
        // 8 CUs: eight identical work-groups take the same compute time
        // as one; nine take two rounds on some CU.
        let base = one.cycles - d.launch_overhead_cycles as f64;
        let c8 = eight.cycles - d.launch_overhead_cycles as f64;
        let c9 = nine.cycles - d.launch_overhead_cycles as f64;
        assert!((c8 - base).abs() < 1e-6);
        assert!((c9 - 2.0 * base).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_roofline_floors_time() {
        let d = device();
        // One wave reading a gigabyte with trivial compute.
        let wg = wg_with_waves(
            &d,
            1,
            WaveCost {
                bytes_read: 1 << 30,
                transactions: 1,
                ..Default::default()
            },
        );
        let s = price_workgroups(&d, &[wg]);
        assert!(s.bandwidth_bound);
        let floor = (1u64 << 30) as f64 / d.bytes_per_cycle();
        assert!(s.cycles >= floor);
    }

    #[test]
    fn occupancy_hides_latency() {
        let d = device();
        let wave = WaveCost {
            mem_rounds: 100,
            ..Default::default()
        };
        // Few waves: latency exposed. Many waves: hidden by occupancy,
        // so per-wave cost drops even though total work grows.
        let few = price_workgroups(&d, &[wg_with_waves(&d, 1, wave)]);
        let lots = price_workgroups(&d, &vec![wg_with_waves(&d, 4, wave); 64]);
        let few_per_wave = few.cycles - d.launch_overhead_cycles as f64;
        // 256 waves over 8 CUs of 4 SIMDs = 8 waves/SIMD occupancy: the
        // per-wave cost must drop well below the single exposed wave's.
        let lots_compute = lots.cycles - d.launch_overhead_cycles as f64;
        let lots_per_wave = lots_compute / 256.0;
        assert!(lots.occupancy > 4.0);
        assert!(
            lots_per_wave < few_per_wave / 4.0,
            "per-wave {lots_per_wave} vs exposed {few_per_wave}"
        );
    }

    #[test]
    fn lds_usage_limits_occupancy() {
        let d = device();
        let wave = WaveCost {
            mem_rounds: 10,
            ..Default::default()
        };
        let mk = |lds: usize| {
            let lt = LaunchTracer::new(&d);
            let mut wgs = Vec::new();
            for _ in 0..64 {
                let mut wg = lt.workgroup(lds);
                for _ in 0..4 {
                    wg.push_wave(wave);
                }
                wgs.push(wg.finish());
            }
            price_workgroups(&d, &wgs)
        };
        let small = mk(1024); // 64 WGs/CU fit: occupancy capped by work
        let huge = mk(32 * 1024); // 2 WGs/CU fit: occupancy 2
        assert!(huge.occupancy < small.occupancy);
        assert!(huge.cycles > small.cycles);
    }

    #[test]
    fn accumulate_adds_launches() {
        let d = device();
        let wg = wg_with_waves(
            &d,
            4,
            WaveCost {
                alu: 10,
                transactions: 5,
                bytes_read: 320,
                ..Default::default()
            },
        );
        let one = price_workgroups(&d, std::slice::from_ref(&wg));
        let mut two = one.clone();
        two.accumulate(&one);
        assert_eq!(two.cycles, 2.0 * one.cycles);
        assert_eq!(two.transactions, 2 * one.transactions);
        assert_eq!(two.workgroups, 2);
    }

    #[test]
    fn pricing_is_deterministic() {
        let d = device();
        let mut wgs = Vec::new();
        for i in 0..20 {
            let lt = LaunchTracer::new(&d);
            let mut wg = lt.workgroup(i * 100);
            let mut w = wg.wave();
            w.alu(i as u64 * 17);
            w.read_contiguous(Region::Val, i, 64, 4);
            wg.push_wave(w.finish());
            wgs.push(wg.finish());
        }
        let a = price_workgroups(&d, &wgs);
        let b = price_workgroups(&d, &wgs);
        assert_eq!(a, b);
    }
}
