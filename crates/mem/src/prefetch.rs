//! The L2 sequential **stream prefetcher**.
//!
//! The Blue Gene/P private L2 is a small line store whose main job is
//! prefetching: a set of stream engines watch the L2 miss stream, detect
//! ascending sequential line sequences, and run ahead of the demand
//! stream by a configurable depth (the "prefetch amount" the paper's §IX
//! proposes sweeping — see the `fig_ext_prefetch` experiment).
//!
//! The detector is the classic two-step scheme: a miss at line `L`
//! allocates a stream only if a recent miss at `L-1` is remembered;
//! a confirmed stream at `L` prefetches `L+1 ..= L+depth` and advances
//! as demand touches arrive.

/// Decision of the prefetcher for one L2 miss.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchDecision {
    /// Lines to fetch speculatively into the L2.
    pub prefetch_lines: Vec<u64>,
    /// Whether a new stream engine was allocated for this miss.
    pub allocated_stream: bool,
}

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Next demand line this stream expects.
    expect: u64,
    /// How far ahead (exclusive) the stream has already prefetched.
    prefetched_to: u64,
    /// LRU stamp.
    stamp: u64,
}

/// Sequential stream detector + scheduler for one core's L2.
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    /// Stream engines; the table is allocated (to `max_streams`) at
    /// the first stream, so a core that never streams holds none.
    streams: Vec<Stream>,
    max_streams: usize,
    depth: usize,
    recent_misses: [u64; Self::HISTORY],
    recent_head: usize,
    clock: u64,
}

impl StreamPrefetcher {
    /// Miss-history length used for stream detection.
    pub(crate) const HISTORY: usize = 8;

    /// A prefetcher with `max_streams` engines running `depth` lines ahead.
    /// `depth == 0` disables prefetching entirely.
    pub fn new(max_streams: usize, depth: usize) -> StreamPrefetcher {
        StreamPrefetcher {
            streams: Vec::new(),
            max_streams: max_streams.max(1),
            depth,
            recent_misses: [u64::MAX; Self::HISTORY],
            recent_head: 0,
            clock: 0,
        }
    }

    /// Feed one L2 **demand miss** at `line`; returns what to prefetch.
    pub fn on_miss(&mut self, line: u64) -> PrefetchDecision {
        let mut out = PrefetchDecision::default();
        self.on_miss_into(line, &mut out);
        out
    }

    /// Allocation-free [`StreamPrefetcher::on_miss`]: clears `out` and
    /// refills it in place, reusing its line buffer. The batch engine
    /// keeps one scratch decision per memory system so the miss path
    /// never heap-allocates.
    pub(crate) fn on_miss_into(&mut self, line: u64, out: &mut PrefetchDecision) {
        out.prefetch_lines.clear();
        out.allocated_stream = false;
        self.clock += 1;
        let clock = self.clock;
        if self.depth == 0 {
            return;
        }

        // An existing stream predicted this line (the prefetch may have
        // been evicted before use — still treat as stream progress).
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|s| line >= s.expect && line < s.prefetched_to.max(s.expect + 1))
        {
            s.expect = line + 1;
            s.stamp = clock;
            let target = line + 1 + self.depth as u64;
            while s.prefetched_to < target {
                out.prefetch_lines.push(s.prefetched_to.max(line + 1));
                s.prefetched_to = out.prefetch_lines.last().unwrap() + 1;
            }
            return;
        }

        // New stream if the predecessor line missed recently.
        if line > 0 && self.recent_misses.contains(&(line - 1)) {
            let first = line + 1;
            let until = first + self.depth as u64;
            out.prefetch_lines.extend(first..until);
            out.allocated_stream = true;
            let s = Stream {
                expect: first,
                prefetched_to: until,
                stamp: clock,
            };
            if self.streams.len() < self.max_streams {
                self.streams
                    .reserve_exact(self.max_streams - self.streams.len());
                self.streams.push(s);
            } else {
                // Replace the least recently used engine.
                let lru = self
                    .streams
                    .iter_mut()
                    .min_by_key(|s| s.stamp)
                    .expect("max_streams >= 1");
                *lru = s;
            }
        }

        self.recent_misses[self.recent_head] = line;
        self.recent_head = (self.recent_head + 1) % Self::HISTORY;
    }

    /// Feed a demand **hit** on a line the prefetcher may be tracking so
    /// established streams keep running ahead of the demand stream;
    /// fills `out` in place like [`StreamPrefetcher::on_miss_into`].
    pub(crate) fn on_hit_into(&mut self, line: u64, out: &mut PrefetchDecision) {
        out.prefetch_lines.clear();
        out.allocated_stream = false;
        self.clock += 1;
        let clock = self.clock;
        if self.depth == 0 {
            return;
        }
        if let Some(s) = self.streams.iter_mut().find(|s| s.expect == line) {
            s.expect = line + 1;
            s.stamp = clock;
            let target = line + 1 + self.depth as u64;
            while s.prefetched_to < target {
                out.prefetch_lines.push(s.prefetched_to);
                s.prefetched_to += 1;
            }
        }
    }

    /// Serialize the prefetcher's runtime state (checkpoint support):
    /// the stream engines, the miss-history window, and the LRU clock.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        bgp_arch::wire::put_u64(out, self.streams.len() as u64);
        for s in &self.streams {
            bgp_arch::wire::put_u64(out, s.expect);
            bgp_arch::wire::put_u64(out, s.prefetched_to);
            bgp_arch::wire::put_u64(out, s.stamp);
        }
        for &m in &self.recent_misses {
            bgp_arch::wire::put_u64(out, m);
        }
        bgp_arch::wire::put_u64(out, self.recent_head as u64);
        bgp_arch::wire::put_u64(out, self.clock);
    }

    /// Restore state previously written by
    /// [`StreamPrefetcher::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input or a stream
    /// count exceeding this prefetcher's engine capacity.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        let n = r.u64("prefetch stream count")?;
        if n > self.max_streams as u64 {
            return Err(bgp_arch::BgpError::corrupt(format!(
                "snapshot has {n} prefetch streams, capacity is {}",
                self.max_streams
            )));
        }
        self.streams.clear();
        for _ in 0..n {
            self.streams.push(Stream {
                expect: r.u64("stream expect")?,
                prefetched_to: r.u64("stream prefetched_to")?,
                stamp: r.u64("stream stamp")?,
            });
        }
        r.u64_array(&mut self.recent_misses, "prefetch miss history")?;
        let head = r.u64("prefetch history head")?;
        if head >= Self::HISTORY as u64 {
            return Err(bgp_arch::BgpError::corrupt(format!(
                "prefetch history head {head} out of range"
            )));
        }
        self.recent_head = head as usize;
        self.clock = r.u64("prefetch clock")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(p: &mut StreamPrefetcher, line: u64) -> PrefetchDecision {
        let mut out = PrefetchDecision::default();
        p.on_hit_into(line, &mut out);
        out
    }

    #[test]
    fn two_sequential_misses_allocate_a_stream() {
        let mut p = StreamPrefetcher::new(4, 2);
        assert_eq!(p.on_miss(100), PrefetchDecision::default());
        let d = p.on_miss(101);
        assert!(d.allocated_stream);
        assert_eq!(d.prefetch_lines, vec![102, 103]);
        assert_eq!(p.streams.len(), 1);
    }

    #[test]
    fn established_stream_runs_ahead_on_hits() {
        let mut p = StreamPrefetcher::new(4, 2);
        p.on_miss(10);
        p.on_miss(11); // stream expects 12, prefetched to 14
        let d = hit(&mut p, 12);
        assert_eq!(d.prefetch_lines, vec![14]);
        let d = hit(&mut p, 13);
        assert_eq!(d.prefetch_lines, vec![15]);
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = StreamPrefetcher::new(4, 2);
        for line in [5u64, 100, 33, 78, 12, 999] {
            let d = p.on_miss(line);
            assert!(d.prefetch_lines.is_empty(), "line {line}");
        }
        assert_eq!(p.streams.len(), 0);
    }

    #[test]
    fn depth_zero_disables_prefetching() {
        let mut p = StreamPrefetcher::new(4, 0);
        p.on_miss(1);
        let d = p.on_miss(2);
        assert_eq!(d, PrefetchDecision::default());
    }

    #[test]
    fn stream_engines_are_lru_replaced() {
        let mut p = StreamPrefetcher::new(2, 1);
        // Allocate streams at 3 distinct regions; capacity is 2.
        for base in [100u64, 200, 300] {
            p.on_miss(base);
            assert!(p.on_miss(base + 1).allocated_stream);
        }
        assert_eq!(p.streams.len(), 2);
        // The first (oldest) stream is gone: a hit at its expectation
        // prefetches nothing.
        assert!(hit(&mut p, 102).prefetch_lines.is_empty());
        // The newest stream still runs.
        assert!(!hit(&mut p, 302).prefetch_lines.is_empty());
    }

    #[test]
    fn stream_tolerates_missing_prefetched_line() {
        // If a prefetched line was evicted before use, the demand miss on
        // it must advance the stream rather than break it.
        let mut p = StreamPrefetcher::new(4, 2);
        p.on_miss(50);
        p.on_miss(51); // expects 52, prefetched to 54
        let d = p.on_miss(52); // prefetch was lost: miss, but stream survives
        assert!(!d.allocated_stream);
        assert_eq!(d.prefetch_lines, vec![54]);
    }
}
