//! The docs may only shrink: DESIGN.md and EXPERIMENTS.md fail the
//! build once they grow past their caps.
//!
//! The targets are DESIGN ≤ 1,000 lines and EXPERIMENTS ≤ 1,200
//! (ROADMAP item 10). Each cap is the length the docs last reached, so
//! a change that shortens a doc lowers its cap with it, towards the
//! target, and no change raises one.

use std::path::Path;

/// Each doc, its cap, and the target the cap comes down to.
const CAPS: [(&str, usize, usize); 2] =
    [("DESIGN.md", 1_630, 1_000), ("EXPERIMENTS.md", 595, 1_200)];

#[test]
fn the_docs_stay_within_their_caps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, cap, target) in CAPS {
        let lines = std::fs::read_to_string(root.join(doc))
            .expect(doc)
            .lines()
            .count();
        assert!(
            lines <= cap,
            "{doc} is {lines} lines, over its cap of {cap}: shorten it (the target is {target})"
        );
    }
}
