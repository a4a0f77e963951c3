//! The XL compiler **flag model**: optimization levels and the `-q`
//! options the paper sweeps (§VI).
//!
//! | flag         | modeled effect                                        |
//! |--------------|-------------------------------------------------------|
//! | `-O` (+`-qstrict`) | baseline: CSE/code motion only; `-qstrict` forbids FMA fusion (it changes rounding) |
//! | `-O3`        | FMA fusion, strength reduction, unrolling ×2          |
//! | `-O4`        | `-O3` + `-qarch -qtune -qcache -qhot`: deeper unrolling, loop optimization, less overhead |
//! | `-O5`        | `-O4` + interprocedural analysis: minimal overhead, best SIMD coverage |
//! | `-qarch=440d`| enables double-hummer SIMD instruction selection plus quadload/quadstore |
//! | `-qarch=440` | plain PPC440 code generation (no SIMD FPU use)        |

use core::fmt;

/// Optimization level of the XL compiler invocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OptLevel {
    /// `-O` — the default optimization level.
    O2,
    /// `-O3`.
    O3,
    /// `-O4` (implies `-qarch -qtune -qcache -qhot`).
    O4,
    /// `-O5` (adds interprocedural analysis).
    O5,
}

impl OptLevel {
    /// All levels in ascending aggressiveness.
    pub const ALL: [OptLevel; 4] = [OptLevel::O2, OptLevel::O3, OptLevel::O4, OptLevel::O5];
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptLevel::O2 => "-O",
            OptLevel::O3 => "-O3",
            OptLevel::O4 => "-O4",
            OptLevel::O5 => "-O5",
        })
    }
}

/// Target-architecture selection (`-qarch`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QArch {
    /// Generic PowerPC; scalar FPU only.
    #[default]
    Generic,
    /// `-qarch=440`: PPC440 tuning, still scalar FPU.
    Ppc440,
    /// `-qarch=440d`: exploit the double-hummer SIMD FPU.
    Ppc440d,
}

impl fmt::Display for QArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QArch::Generic => "",
            QArch::Ppc440 => "-qarch=440",
            QArch::Ppc440d => "-qarch=440d",
        })
    }
}

/// A complete compiler invocation for one benchmark build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CompileOpts {
    /// Optimization level.
    pub opt: OptLevel,
    /// `-qstrict`: forbid optimizations that change program semantics
    /// (most importantly FMA fusion, which changes rounding).
    pub qstrict: bool,
    /// `-qarch` target.
    pub qarch: QArch,
    /// `-qtune`: processor-specific scheduling (implied by `-O4`).
    pub qtune: bool,
    /// `-qcache`: cache-geometry-aware optimization (implied by `-O4`).
    pub qcache: bool,
    /// `-qhot`: high-order loop transformations (implied by `-O4`).
    pub qhot: bool,
}

impl CompileOpts {
    /// The paper's baseline build: `-O -qstrict`.
    pub fn baseline() -> CompileOpts {
        CompileOpts {
            opt: OptLevel::O2,
            qstrict: true,
            qarch: QArch::Ppc440,
            qtune: false,
            qcache: false,
            qhot: false,
        }
    }

    /// `-O3 -qarch=440d`.
    pub fn o3() -> CompileOpts {
        CompileOpts {
            opt: OptLevel::O3,
            qstrict: false,
            qarch: QArch::Ppc440d,
            qtune: false,
            qcache: false,
            qhot: false,
        }
    }

    /// `-O4` (implies `-qarch=440d -qtune -qcache -qhot`).
    pub fn o4() -> CompileOpts {
        CompileOpts {
            opt: OptLevel::O4,
            qstrict: false,
            qarch: QArch::Ppc440d,
            qtune: true,
            qcache: true,
            qhot: true,
        }
    }

    /// `-O5` (everything `-O4` does plus interprocedural analysis).
    pub fn o5() -> CompileOpts {
        CompileOpts {
            opt: OptLevel::O5,
            ..CompileOpts::o4()
        }
    }

    /// The four builds of the paper's Figs. 9–10 sweep, in order.
    pub fn paper_sweep() -> [CompileOpts; 4] {
        [
            CompileOpts::baseline(),
            CompileOpts::o3(),
            CompileOpts::o4(),
            CompileOpts::o5(),
        ]
    }

    /// Copy with a different `-qarch` (Figs. 7–8 compare ±`440d`).
    pub fn with_qarch(mut self, qarch: QArch) -> CompileOpts {
        self.qarch = qarch;
        self
    }

    /// Whether SIMD instruction selection is active: needs `-qarch=440d`
    /// and at least `-O3` (the paper notes 440d "is used along with O3,
    /// O4 and O5").
    pub fn simd_enabled(&self) -> bool {
        self.qarch == QArch::Ppc440d && self.opt >= OptLevel::O3
    }

    /// Whether FMA fusion is active (`-qstrict` forbids it).
    pub(crate) fn fma_enabled(&self) -> bool {
        !self.qstrict
    }

    /// Render as a command-line-like label for CSV output.
    pub fn label(&self) -> String {
        let mut s = self.opt.to_string();
        if self.qstrict {
            s.push_str(" -qstrict");
        }
        if self.qarch != QArch::Generic {
            s.push(' ');
            s.push_str(&self.qarch.to_string());
        }
        if self.qhot && self.opt < OptLevel::O4 {
            s.push_str(" -qhot");
        }
        s
    }
}

impl fmt::Display for CompileOpts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_strict_and_scalar() {
        let b = CompileOpts::baseline();
        assert!(!b.fma_enabled(), "-qstrict forbids FMA fusion");
        assert!(!b.simd_enabled());
        assert_eq!(b.label(), "-O -qstrict -qarch=440");
    }

    #[test]
    fn simd_needs_both_level_and_arch() {
        assert!(CompileOpts::o3().simd_enabled());
        assert!(CompileOpts::o5().simd_enabled());
        assert!(!CompileOpts::o3().with_qarch(QArch::Ppc440).simd_enabled());
        // -O with 440d still cannot SIMD-ize (no loop analysis).
        let low = CompileOpts {
            opt: OptLevel::O2,
            ..CompileOpts::o3()
        };
        assert!(!low.simd_enabled());
    }

    #[test]
    fn o4_implies_the_q_family() {
        let o4 = CompileOpts::o4();
        assert!(o4.qtune && o4.qcache && o4.qhot);
        assert_eq!(o4.qarch, QArch::Ppc440d);
    }

    #[test]
    fn sweep_is_ordered_and_distinct() {
        let s = CompileOpts::paper_sweep();
        assert_eq!(s.len(), 4);
        for w in s.windows(2) {
            assert!(w[0].opt < w[1].opt);
        }
    }

    #[test]
    fn labels_are_unique_within_the_sweep() {
        let s = CompileOpts::paper_sweep();
        let labels: std::collections::HashSet<_> = s.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
