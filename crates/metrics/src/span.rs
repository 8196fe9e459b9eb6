//! Hierarchical wall-time spans.

use crate::Registry;
use std::sync::Arc;
use std::time::Instant;

/// A running span. Records its elapsed wall time into the registry when
/// finished (explicitly via [`Span::finish`], or implicitly on drop).
///
/// Hierarchy is path-based: [`Span::child`] starts a span whose path is
/// `parent_path/name`, so exported JSON groups naturally by prefix and
/// spans can cross thread boundaries without thread-local state.
#[derive(Debug)]
pub struct Span {
    /// The registry and this span's path; `None` on a disabled handle,
    /// whose spans neither record nor allocate.
    recorder: Option<(Arc<Registry>, String)>,
    start: Instant,
    done: bool,
}

impl Span {
    pub(crate) fn start(recorder: Option<(Arc<Registry>, String)>) -> Self {
        Self {
            recorder,
            start: Instant::now(),
            done: false,
        }
    }

    /// This span's full `/`-separated path (empty on a disabled handle).
    pub fn path(&self) -> &str {
        self.recorder.as_ref().map_or("", |(_, path)| path)
    }

    /// Start a child span named `path/name`.
    pub fn child(&self, name: &str) -> Span {
        Span::start(
            self.recorder
                .as_ref()
                .map(|(r, path)| (Arc::clone(r), format!("{path}/{name}"))),
        )
    }

    /// Stop the span, record it, and return the elapsed seconds.
    /// Elapsed time is returned even when the handle is disabled.
    pub fn finish(mut self) -> f64 {
        self.record()
    }

    fn record(&mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if !self.done {
            self.done = true;
            if let Some((r, path)) = &self.recorder {
                r.record_span(path, secs);
            }
        }
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_once() {
        let r = Arc::new(Registry::new());
        let span = Span::start(Some((Arc::clone(&r), "t".into())));
        let secs = span.finish();
        assert!(secs >= 0.0);
        assert_eq!(r.snapshot().spans["t"].calls, 1);
    }

    #[test]
    fn drop_records_unfinished_span() {
        let r = Arc::new(Registry::new());
        {
            let _span = Span::start(Some((Arc::clone(&r), "dropped".into())));
        }
        assert_eq!(r.snapshot().spans["dropped"].calls, 1);
    }

    #[test]
    fn child_paths_compose() {
        let r = Arc::new(Registry::new());
        let parent = Span::start(Some((Arc::clone(&r), "a".into())));
        let child = parent.child("b");
        let grandchild = child.child("c");
        assert_eq!(grandchild.path(), "a/b/c");
        grandchild.finish();
        child.finish();
        parent.finish();
        let spans = r.snapshot().spans;
        assert!(spans.contains_key("a/b/c"));
    }

    #[test]
    fn disabled_span_still_measures() {
        let span = Span::start(None);
        let child = span.child("y");
        assert_eq!((span.path(), child.path()), ("", ""));
        assert!(child.finish() >= 0.0);
        assert!(span.finish() >= 0.0);
    }
}
