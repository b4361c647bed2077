//! Conservation auditor for the decentralized protocol.
//!
//! A dev-profile shadow bookkeeper in the style of the placement
//! oracle: the driver narrates every launch, slot release, message
//! send/delivery, and in-flight assign to an [`Auditor`] that keeps its
//! own minimal mirror and asserts the protocol's conservation laws —
//! after every event (per-worker slot equation, per-job occupancy
//! reconciliation) and at end-of-run (no running copies, no leaked
//! slots, message counts conserve, no pending kills). Because the
//! auditor is active across the whole dev test suite, every existing
//! test plus the chaos storms re-prove the protocol under every event
//! sequence they generate; release and bench profiles compile it out.
//!
//! The auditor deliberately knows nothing about policy: it cannot tell
//! a good schedule from a bad one, only a *possible* execution from an
//! *impossible* one (a double-launched original, a slot that was freed
//! twice, a message delivered more often than it was sent).

use std::collections::HashMap;

/// The five scheduler↔worker RPC kinds subject to message faults.
/// `Finish`/`Scan`/timer events are local and reliable, so they are
/// outside the conservation ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    Reservation,
    Response,
    Assign,
    Refusal,
    Kill,
}

const NUM_KINDS: usize = 5;

impl MsgKind {
    fn idx(self) -> usize {
        match self {
            MsgKind::Reservation => 0,
            MsgKind::Response => 1,
            MsgKind::Assign => 2,
            MsgKind::Refusal => 3,
            MsgKind::Kill => 4,
        }
    }

    fn name(i: usize) -> &'static str {
        ["reservation", "response", "assign", "refusal", "kill"][i]
    }
}

/// Shadow bookkeeper; see the module docs. Construct one per run (dev
/// profile only) and feed it every protocol action.
#[derive(Debug, Default)]
pub struct Auditor {
    /// Copies currently executing per worker, mirrored from launch /
    /// stop notifications — never trusted from the driver's own
    /// counters.
    running: Vec<u64>,
    /// Occupancy-carrying messages (assigns and kills) sent minus
    /// delivered, per job. The driver's `occupied` counter moves at
    /// *send* time while ground truth moves at *delivery* time; this
    /// mirror is the difference, maintained only while faults are off
    /// (under faults a lost assign legitimately de-syncs the counter
    /// until the watchdog reconciles, so there is nothing to assert).
    in_flight_occ: HashMap<u32, i64>,
    sent: [u64; NUM_KINDS],
    dup: [u64; NUM_KINDS],
    lost: [u64; NUM_KINDS],
    delivered: [u64; NUM_KINDS],
}

impl Auditor {
    pub fn new(workers: usize) -> Box<Self> {
        Box::new(Auditor {
            running: vec![0; workers],
            ..Auditor::default()
        })
    }

    /// A copy launched on worker `w`. `running_before`/`finished` are
    /// the job's ground-truth state for the task *before* this launch:
    /// an original may only ever launch on a task with no running copy
    /// and no finished copy — anything else is a double launch.
    pub fn note_launch(&mut self, w: usize, original: bool, running_before: u64, finished: bool) {
        if original {
            assert!(
                running_before == 0 && !finished,
                "audit: original double-launch on worker {w} \
                 (running_before={running_before}, finished={finished})"
            );
        }
        self.running[w] += 1;
    }

    /// A copy started running on worker `w` — the sharded engine's
    /// launch note. Under the ack'd launch protocol the worker commits
    /// the copy before the owning scheduler can check ground truth, so
    /// the double-launch precondition is asserted scheduler-side (the
    /// stale-assignment predicate) rather than here; this only grows
    /// the running mirror for the slot equation.
    pub fn note_copy_started(&mut self, w: usize) {
        self.running[w] += 1;
    }

    /// Fold another auditor's ledgers into this one — used at the end
    /// of a sharded run to combine per-shard auditors before the global
    /// end-of-run laws. Shards own disjoint worker ranges, so summing
    /// the running mirrors elementwise is exact.
    pub fn merge(&mut self, other: &Auditor) {
        assert_eq!(self.running.len(), other.running.len());
        for (r, o) in self.running.iter_mut().zip(&other.running) {
            *r += o;
        }
        for (&job, &n) in &other.in_flight_occ {
            *self.in_flight_occ.entry(job).or_insert(0) += n;
        }
        for i in 0..NUM_KINDS {
            self.sent[i] += other.sent[i];
            self.dup[i] += other.dup[i];
            self.lost[i] += other.lost[i];
            self.delivered[i] += other.delivered[i];
        }
    }

    /// A copy on worker `w` stopped occupying its slot (finished, was
    /// killed, or its kill was lost and the finish reclaimed the slot).
    pub fn note_copy_stopped(&mut self, w: usize) {
        assert!(
            self.running[w] > 0,
            "audit: slot freed twice on worker {w} (no running copy)"
        );
        self.running[w] -= 1;
    }

    /// Worker `w`'s machine failed: every copy on it is gone at once.
    pub fn note_machine_failed(&mut self, w: usize) {
        self.running[w] = 0;
    }

    pub fn note_sent(&mut self, k: MsgKind) {
        self.sent[k.idx()] += 1;
    }

    pub fn note_dup(&mut self, k: MsgKind) {
        self.dup[k.idx()] += 1;
    }

    pub fn note_lost(&mut self, k: MsgKind) {
        self.lost[k.idx()] += 1;
    }

    pub fn note_delivered(&mut self, k: MsgKind) {
        self.delivered[k.idx()] += 1;
    }

    /// An occupancy-carrying message (assign or kill) for `job` left
    /// for a worker. Call only while faults are off.
    pub fn note_occ_sent(&mut self, job: u32) {
        *self.in_flight_occ.entry(job).or_insert(0) += 1;
    }

    /// An occupancy-carrying message for `job` reached its worker.
    pub fn note_occ_delivered(&mut self, job: u32) {
        *self.in_flight_occ.entry(job).or_insert(0) -= 1;
    }

    /// In-flight occupancy messages for `job` as mirrored here.
    pub fn in_flight(&self, job: u32) -> i64 {
        self.in_flight_occ.get(&job).copied().unwrap_or(0)
    }

    /// Per-worker slot equation, checked after any event that touched
    /// worker `w`: up ⇒ free + promised(episode) + running = slots;
    /// down ⇒ everything zero.
    pub fn check_worker(&self, w: usize, up: bool, free: u64, has_episode: bool, slots: u64) {
        let promised = has_episode as u64;
        if up {
            assert_eq!(
                free + promised + self.running[w],
                slots,
                "audit: slot leak on worker {w}: free={free} promised={promised} \
                 running={} slots={slots}",
                self.running[w]
            );
        } else {
            assert!(
                free == 0 && !has_episode && self.running[w] == 0,
                "audit: down worker {w} holds state: free={free} episode={has_episode} \
                 running={}",
                self.running[w]
            );
        }
    }

    /// Per-job occupancy reconciliation (faults-off only): the driver's
    /// `occupied` counter must equal ground-truth occupied slots plus
    /// occupancy messages still on the wire (a sent assign is counted
    /// before it launches; a killed sibling leaves ground truth at race
    /// resolution but leaves the counter only when its kill lands).
    pub fn check_job(&self, job: u32, counter: u64, ground_truth: u64) {
        assert_eq!(
            counter as i64,
            ground_truth as i64 + self.in_flight(job),
            "audit: job {job} occupancy counter {counter} != ground truth {ground_truth} \
             + in-flight {}",
            self.in_flight(job)
        );
    }

    /// End-of-run laws: no copy still running anywhere, every job's
    /// in-flight occupancy messages drained, every message accounted for
    /// (sent + duplicated = delivered + lost, per kind), and no kill
    /// still pending.
    pub fn check_end(&self, pending_kills: usize) {
        for (w, &r) in self.running.iter().enumerate() {
            assert_eq!(r, 0, "audit: worker {w} ends with {r} running copies");
        }
        for (&job, &n) in &self.in_flight_occ {
            assert_eq!(n, 0, "audit: job {job} ends with {n} in-flight messages");
        }
        for i in 0..NUM_KINDS {
            assert_eq!(
                self.sent[i] + self.dup[i],
                self.delivered[i] + self.lost[i],
                "audit: {} messages do not conserve: sent={} dup={} delivered={} lost={}",
                MsgKind::name(i),
                self.sent[i],
                self.dup[i],
                self.delivered[i],
                self.lost[i]
            );
        }
        assert_eq!(
            pending_kills, 0,
            "audit: {pending_kills} kills still pending at end"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_equation_tracks_launch_and_stop() {
        let mut a = Auditor::new(2);
        a.note_launch(0, true, 0, false);
        a.check_worker(0, true, 3, false, 4);
        a.note_launch(0, false, 1, false); // speculative alongside the original
        a.check_worker(0, true, 2, false, 4);
        a.note_copy_stopped(0);
        a.note_copy_stopped(0);
        a.check_worker(0, true, 4, false, 4);
        a.check_worker(1, true, 1, true, 2); // promised slot counts
    }

    #[test]
    #[should_panic(expected = "original double-launch")]
    fn original_double_launch_is_caught() {
        let mut a = Auditor::new(1);
        a.note_launch(0, true, 1, false);
    }

    #[test]
    #[should_panic(expected = "slot freed twice")]
    fn double_free_is_caught() {
        let mut a = Auditor::new(1);
        a.note_copy_stopped(0);
    }

    #[test]
    #[should_panic(expected = "slot leak")]
    fn leaked_slot_is_caught() {
        let mut a = Auditor::new(1);
        a.note_launch(0, false, 1, false);
        a.note_machine_failed(0);
        // Machine failed: a later check claiming a running copy + full
        // free count can't balance.
        a.note_launch(0, false, 1, false);
        a.check_worker(0, true, 4, false, 4);
    }

    #[test]
    fn occupancy_mirror_reconciles_faults_off() {
        let mut a = Auditor::new(1);
        a.note_occ_sent(7);
        a.check_job(7, 1, 0); // counter bumped at send, nothing occupied yet
        a.note_occ_delivered(7);
        a.check_job(7, 1, 1); // delivered and launched
                              // Race resolution: ground truth drops winner + sibling at once,
                              // the sibling's counter decrement rides on its in-flight kill.
        a.note_occ_sent(7);
        a.check_job(7, 1, 0);
        a.note_occ_delivered(7);
        a.check_job(7, 0, 0);
    }

    #[test]
    #[should_panic(expected = "occupancy counter")]
    fn desynced_occupancy_is_caught() {
        let mut a = Auditor::new(1);
        a.note_occ_sent(3);
        a.check_job(3, 5, 1);
    }

    #[test]
    #[should_panic(expected = "in-flight messages")]
    fn undrained_inflight_message_is_caught_at_end() {
        let mut a = Auditor::new(1);
        a.note_occ_sent(2);
        a.note_sent(MsgKind::Assign);
        a.note_delivered(MsgKind::Assign);
        a.check_end(0);
    }

    #[test]
    fn message_conservation_holds_and_fails() {
        let mut a = Auditor::new(1);
        a.note_sent(MsgKind::Response);
        a.note_dup(MsgKind::Response);
        a.note_delivered(MsgKind::Response);
        a.note_delivered(MsgKind::Response);
        a.note_sent(MsgKind::Kill);
        a.note_lost(MsgKind::Kill);
        a.check_end(0);
    }

    #[test]
    #[should_panic(expected = "do not conserve")]
    fn unaccounted_message_is_caught() {
        let mut a = Auditor::new(1);
        a.note_sent(MsgKind::Assign);
        a.check_end(0);
    }

    #[test]
    #[should_panic(expected = "kills still pending")]
    fn pending_kill_at_end_is_caught() {
        let a = Auditor::new(1);
        a.check_end(1);
    }
}
