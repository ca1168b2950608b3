//! Freshness-probe bookkeeping: which probes were sent when, and when a
//! query first returned each.

use crate::stats::Windowed;
use std::collections::BTreeMap;

/// Probes issued and not yet seen, plus the freshness of those seen.
#[derive(Debug)]
pub struct ProbeBook {
    outstanding: BTreeMap<u64, u64>,
    fresh: Windowed,
}

impl ProbeBook {
    /// An empty book whose freshness samples are windowed by the time
    /// each probe was seen (see [`Windowed`]).
    pub fn new(fresh: Windowed) -> Self {
        Self {
            outstanding: BTreeMap::new(),
            fresh,
        }
    }

    /// Records that probe flow `flow` was due at `due_ns`.
    pub fn issue(&mut self, flow: u64, due_ns: u64) {
        self.outstanding.insert(flow, due_ns);
    }

    /// Flow IDs still waiting to be seen, ascending.
    pub fn outstanding(&self) -> Vec<u64> {
        self.outstanding.keys().copied().collect()
    }

    /// Marks every outstanding probe among `seen` as seen at `now_ns`,
    /// recording `now_ns - due` as its freshness. IDs that are not
    /// outstanding (already seen, or never issued) are ignored. Returns
    /// how many probes were newly seen.
    pub fn observe(&mut self, seen: impl IntoIterator<Item = u64>, now_ns: u64) -> usize {
        let mut newly = 0;
        for flow in seen {
            if let Some(due) = self.outstanding.remove(&flow) {
                self.fresh.push(now_ns, now_ns.saturating_sub(due));
                newly += 1;
            }
        }
        newly
    }

    /// Probes issued but never seen.
    pub fn unseen(&self) -> u64 {
        self.outstanding.len() as u64
    }

    /// Freshness samples of the probes seen, in ns.
    pub fn freshness(&mut self) -> &mut Windowed {
        &mut self.fresh
    }
}
