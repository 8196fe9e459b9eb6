//! `lock-order`: deadlock-shaped locking patterns.
//!
//! Three findings, all grounded in the pass-1 lock model (guard
//! lifetime ≈ enclosing block, see DESIGN.md §13):
//!
//! 1. **Re-acquire** — the same lock acquired again (directly or via a
//!    resolved callee) while its guard is still live. With `std` mutexes
//!    this is a guaranteed self-deadlock (or poison-panic), not a maybe.
//! 2. **Inversion** — lock `A` is taken while holding `B` somewhere,
//!    and lock `B` while holding `A` somewhere else. Each side of the
//!    inverted pair is reported, citing the opposite site.
//! 3. **Blocking while locked** — a blocking primitive (`recv`, `wait`
//!    on *another* guard, file/socket I/O, `join`) or a call to a
//!    function that transitively blocks or takes locks, made while a
//!    guard is live. `Condvar::wait(guard)` releases its own guard and
//!    is exempt for that guard.
//!
//! Lock identity is the canonical `Type::field` id from pass 1; two
//! `Mutex` fields on different instances of the same type share an id,
//! which is the conservative direction for ordering analysis.

use super::{Finding, Rule, Workspace};
use std::collections::{BTreeMap, BTreeSet};

pub struct LockOrder;

/// Lower number = higher priority when several findings land on the
/// same (file, line, col): a re-acquire subsumes an inversion, which
/// subsumes a plain blocking-while-locked note.
const PRIO_REACQUIRE: u8 = 0;
const PRIO_REACQUIRE_VIA: u8 = 1;
const PRIO_INVERSION: u8 = 2;
const PRIO_BLOCKING: u8 = 3;
const PRIO_BLOCKING_VIA: u8 = 4;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn summary(&self) -> &'static str {
        "inconsistent lock acquisition order, lock re-acquisition, or a blocking \
         call while a guard is held; establish a global lock order and shrink \
         critical sections"
    }

    fn check(&self, ws: &Workspace<'_>) -> Vec<Finding> {
        let n = ws.model.functions.len();

        // --- transitive lock sets / blocking flags ----------------
        // acq[f]    = locks f may acquire, directly or via callees
        // blocks[f] = f may block (blocking primitive or any lock
        //             acquisition counts: acquiring contended locks blocks)
        let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut blocks: Vec<bool> = vec![false; n];
        for fid in 0..n {
            for ev in &ws.model.locks[fid] {
                acq[fid].insert(ev.lock.clone());
            }
            blocks[fid] = !ws.model.blocking[fid].is_empty() || !acq[fid].is_empty();
        }
        loop {
            let mut changed = false;
            for fid in 0..n {
                for call in ws.model.resolved_calls(fid) {
                    let g = call.resolved.expect("resolved");
                    if g == fid {
                        continue;
                    }
                    if blocks[g] && !blocks[fid] {
                        blocks[fid] = true;
                        changed = true;
                    }
                    let add: Vec<String> = acq[g].difference(&acq[fid]).cloned().collect();
                    if !add.is_empty() {
                        acq[fid].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // --- per-site findings + ordered-pair evidence ------------
        // pair (a, b) = "b acquired while a held", with every witness site.
        type Site = (usize, u32, u32, Option<String>); // fid, line, col, via-callee
        let mut pairs: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
        // site key -> (priority, finding); lowest priority number wins.
        let mut sited: BTreeMap<(String, u32, u32), (u8, Finding)> = BTreeMap::new();
        let place =
            |sited: &mut BTreeMap<(String, u32, u32), (u8, Finding)>, prio: u8, f: Finding| {
                let key = (f.file.clone(), f.line, f.col);
                match sited.get(&key) {
                    Some((p, _)) if *p <= prio => {}
                    _ => {
                        sited.insert(key, (prio, f));
                    }
                }
            };

        for fid in 0..n {
            let f = &ws.model.functions[fid];
            if f.is_test {
                continue;
            }
            let ctx = &ws.contexts[f.file];
            let file = ctx.file;
            let fname = ws.model.qualified(ws.contexts, fid);
            for a in &ws.model.locks[fid] {
                if ctx.is_test_line(a.line) {
                    continue;
                }
                let held = |tok: usize| tok > a.token && tok < a.until;

                // Nested direct acquisitions.
                for b in &ws.model.locks[fid] {
                    if !held(b.token) || ctx.is_test_line(b.line) {
                        continue;
                    }
                    if b.lock == a.lock {
                        place(
                            &mut sited,
                            PRIO_REACQUIRE,
                            Finding::new(
                                self.id(),
                                file,
                                b.line,
                                b.col,
                                format!(
                                    "`{fname}` re-acquires `{}` while its guard from line {} \
                                     is still live — self-deadlock with std locks",
                                    a.lock, a.line
                                ),
                            ),
                        );
                    } else {
                        pairs
                            .entry((a.lock.clone(), b.lock.clone()))
                            .or_default()
                            .push((fid, b.line, b.col, None));
                    }
                }

                // Blocking primitives under the guard.
                for bl in &ws.model.blocking[fid] {
                    if !held(bl.token) || ctx.is_test_line(bl.line) {
                        continue;
                    }
                    // Condvar::wait(guard) atomically releases that guard.
                    if a.guard.is_some() && bl.releases == a.guard {
                        continue;
                    }
                    place(
                        &mut sited,
                        PRIO_BLOCKING,
                        Finding::new(
                            self.id(),
                            file,
                            bl.line,
                            bl.col,
                            format!(
                                "`{fname}` makes a blocking call (`{}`) while holding `{}` \
                                 (guard taken at line {}); release the guard first",
                                bl.what, a.lock, a.line
                            ),
                        ),
                    );
                }

                // Resolved calls under the guard.
                for call in ws.model.resolved_calls(fid) {
                    if !held(call.token) || ctx.is_test_line(call.line) {
                        continue;
                    }
                    let g = call.resolved.expect("resolved");
                    if g == fid {
                        continue;
                    }
                    let gname = ws.model.qualified(ws.contexts, g);
                    for l in &acq[g] {
                        if *l == a.lock {
                            place(
                                &mut sited,
                                PRIO_REACQUIRE_VIA,
                                Finding::new(
                                    self.id(),
                                    file,
                                    call.line,
                                    call.col,
                                    format!(
                                        "`{fname}` calls `{gname}`, which acquires `{}` — \
                                         already held here since line {} (self-deadlock)",
                                        a.lock, a.line
                                    ),
                                ),
                            );
                        } else {
                            pairs.entry((a.lock.clone(), l.clone())).or_default().push((
                                fid,
                                call.line,
                                call.col,
                                Some(gname.clone()),
                            ));
                        }
                    }
                    if blocks[g] {
                        place(
                            &mut sited,
                            PRIO_BLOCKING_VIA,
                            Finding::new(
                                self.id(),
                                file,
                                call.line,
                                call.col,
                                format!(
                                    "`{fname}` calls `{gname}`, which can block (locks or \
                                     blocking I/O), while holding `{}` (guard taken at \
                                     line {}); call it outside the critical section",
                                    a.lock, a.line
                                ),
                            ),
                        );
                    }
                }
            }
        }

        // --- inversions -------------------------------------------
        for ((a, b), sites) in &pairs {
            let Some(opposite) = pairs.get(&(b.clone(), a.clone())) else {
                continue;
            };
            // Cite the first opposite-order witness deterministically.
            let (ofid, oline, _ocol, _) = opposite
                .iter()
                .min_by_key(|(fid, line, col, _)| {
                    (
                        &ws.contexts[ws.model.functions[*fid].file].file.path,
                        *line,
                        *col,
                    )
                })
                .expect("non-empty witness list");
            let ofile = &ws.contexts[ws.model.functions[*ofid].file].file.path;
            let oname = ws.model.qualified(ws.contexts, *ofid);
            for (fid, line, col, via) in sites {
                let fname = ws.model.qualified(ws.contexts, *fid);
                let file = ws.contexts[ws.model.functions[*fid].file].file;
                let how = match via {
                    Some(callee) => format!("via `{callee}` "),
                    None => String::new(),
                };
                place(
                    &mut sited,
                    PRIO_INVERSION,
                    Finding::new(
                        self.id(),
                        file,
                        *line,
                        *col,
                        format!(
                            "`{fname}` acquires `{b}` {how}while holding `{a}`, but `{oname}` \
                             ({ofile}:{oline}) acquires `{a}` while holding `{b}` — \
                             lock-order inversion can deadlock"
                        ),
                    ),
                );
            }
        }

        sited.into_values().map(|(_, f)| f).collect()
    }
}
