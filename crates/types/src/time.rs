//! Event-time primitives and sliding-window specifications.
//!
//! The analyst's query carries a window length `w` and a sliding
//! interval `δ` (paper §3.1); the aggregator computes results "as a
//! sliding window … for every window" (§3.2.4). Window assignment
//! follows the standard event-time semantics: an event at time `t`
//! belongs to every window `[start, start + w)` with
//! `start ≡ 0 (mod δ)` and `start ∈ (t − w, t]`.

/// A span of milliseconds (durations, periods, window sizes).
pub type Millis = u64;

/// An event-time instant in milliseconds since the stream epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(pub Millis);

impl Timestamp {
    /// Advances the timestamp by `delta` milliseconds.
    pub const fn plus(self, delta: Millis) -> Timestamp {
        Timestamp(self.0 + delta)
    }

    /// Saturating subtraction of `delta` milliseconds.
    pub const fn minus(self, delta: Millis) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta))
    }
}

impl core::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

/// A half-open event-time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Window {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Window {
    /// Builds a window from start and length.
    pub const fn of(start: Timestamp, size: Millis) -> Window {
        Window {
            start,
            end: Timestamp(start.0 + size),
        }
    }

    /// True if `t` falls inside `[start, end)`.
    pub const fn contains(&self, t: Timestamp) -> bool {
        t.0 >= self.start.0 && t.0 < self.end.0
    }

    /// Window length in milliseconds.
    pub const fn size(&self) -> Millis {
        self.end.0 - self.start.0
    }
}

impl core::fmt::Display for Window {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {})", self.start.0, self.end.0)
    }
}

/// A sliding-window specification `(w, δ)`.
///
/// `slide == size` degenerates to tumbling windows; `slide > size` is
/// rejected because events would fall into no window at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window length `w` in milliseconds.
    pub size: Millis,
    /// Sliding interval `δ` in milliseconds.
    pub slide: Millis,
}

impl WindowSpec {
    /// Creates a sliding-window spec.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero or if `slide > size`.
    pub fn sliding(size: Millis, slide: Millis) -> WindowSpec {
        assert!(size > 0, "window size must be positive");
        assert!(slide > 0, "window slide must be positive");
        assert!(
            slide <= size,
            "slide ({slide}) must not exceed size ({size}): events would be dropped"
        );
        WindowSpec { size, slide }
    }

    /// Creates a tumbling-window spec (`slide == size`).
    pub fn tumbling(size: Millis) -> WindowSpec {
        WindowSpec::sliding(size, size)
    }

    /// Number of windows each event belongs to: `⌈w / δ⌉`.
    pub fn windows_per_event(&self) -> usize {
        (self.size.div_ceil(self.slide)) as usize
    }

    /// All windows containing the event time `t`, in increasing start
    /// order.
    ///
    /// Allocating wrapper over [`WindowSpec::assigned`].
    pub fn assign(&self, t: Timestamp) -> Vec<Window> {
        self.assigned(t).collect()
    }

    /// Iterator over the windows containing the event time `t`, in
    /// increasing start order — the allocation-free form of
    /// [`WindowSpec::assign`] that the streaming hot path
    /// (`WindowedFold::push`) walks per event.
    pub fn assigned(&self, t: Timestamp) -> AssignedWindows {
        // Earliest window start that still contains t: the smallest
        // multiple of `slide` strictly greater than t - size.
        let lower = t.0.saturating_sub(self.size - 1); // inclusive bound on start
        let first = lower.div_ceil(self.slide) * self.slide;
        AssignedWindows {
            next_start: first,
            last_start: t.0,
            size: self.size,
            slide: self.slide,
        }
    }

    /// The single window with the latest start containing `t` (the
    /// "current" window for result emission).
    pub fn current_window(&self, t: Timestamp) -> Window {
        let start = (t.0 / self.slide) * self.slide;
        Window::of(Timestamp(start), self.size)
    }
}

/// Iterator over the windows containing one event time (see
/// [`WindowSpec::assigned`]).
#[derive(Debug, Clone)]
pub struct AssignedWindows {
    next_start: Millis,
    /// Inclusive bound: the event time itself (starts beyond it no
    /// longer contain the event).
    last_start: Millis,
    size: Millis,
    slide: Millis,
}

impl Iterator for AssignedWindows {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.next_start > self.last_start {
            return None;
        }
        let w = Window::of(Timestamp(self.next_start), self.size);
        self.next_start += self.slide;
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assignment_is_unique() {
        let spec = WindowSpec::tumbling(100);
        for t in [0, 1, 99, 100, 250] {
            let ws = spec.assign(Timestamp(t));
            assert_eq!(ws.len(), 1, "tumbling event at {t} in one window");
            assert!(ws[0].contains(Timestamp(t)));
            assert_eq!(ws[0].start.0 % 100, 0);
        }
    }

    #[test]
    fn sliding_assignment_covers_w_over_delta_windows() {
        // w = 10 min, δ = 1 min — the paper's §3.1 example.
        let spec = WindowSpec::sliding(600_000, 60_000);
        let t = Timestamp(3_600_000);
        let ws = spec.assign(t);
        assert_eq!(ws.len(), 10);
        for w in &ws {
            assert!(w.contains(t), "window {w} must contain {t}");
            assert_eq!(w.size(), 600_000);
            assert_eq!(w.start.0 % 60_000, 0);
        }
        // Starts are consecutive multiples of the slide.
        for pair in ws.windows(2) {
            assert_eq!(pair[1].start.0 - pair[0].start.0, 60_000);
        }
    }

    #[test]
    fn assignment_near_origin_truncates() {
        let spec = WindowSpec::sliding(100, 25);
        let ws = spec.assign(Timestamp(10));
        // Only windows with non-negative aligned starts exist.
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].start, Timestamp(0));
    }

    #[test]
    fn every_assigned_window_contains_the_event() {
        let spec = WindowSpec::sliding(90, 20);
        for t in 0..400u64 {
            for w in spec.assign(Timestamp(t)) {
                assert!(w.contains(Timestamp(t)), "t={t} window={w}");
            }
        }
    }

    #[test]
    fn no_containing_window_is_missed() {
        let spec = WindowSpec::sliding(90, 20);
        for t in 0..400u64 {
            let assigned = spec.assign(Timestamp(t));
            // Exhaustively check all aligned starts.
            let mut expect = Vec::new();
            let mut start = 0u64;
            while start <= t {
                let w = Window::of(Timestamp(start), 90);
                if w.contains(Timestamp(t)) {
                    expect.push(w);
                }
                start += 20;
            }
            assert_eq!(assigned, expect, "t={t}");
        }
    }

    #[test]
    fn current_window_has_latest_start() {
        let spec = WindowSpec::sliding(100, 25);
        let w = spec.current_window(Timestamp(130));
        assert_eq!(w.start, Timestamp(125));
        assert!(w.contains(Timestamp(130)));
    }

    #[test]
    #[should_panic(expected = "slide")]
    fn slide_larger_than_size_is_rejected() {
        let _ = WindowSpec::sliding(10, 20);
    }

    #[test]
    fn timestamp_arithmetic_saturates() {
        assert_eq!(Timestamp(5).minus(10), Timestamp(0));
        assert_eq!(Timestamp(5).plus(10), Timestamp(15));
    }
}
