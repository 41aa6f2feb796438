//! Deterministic fault injection for chaos testing the serve pipeline.
//!
//! A [`FaultPlan`] describes *server-side* misbehavior and is threaded
//! through [`crate::NetConfig::fault_plan`]: the reactor consults it at
//! its accept and write hooks, so a faulted node misbehaves identically
//! on every run — no clocks, no global randomness. Seeded constructors
//! derive their offsets from a caller-supplied seed with splitmix64, so
//! a chaos suite can sweep fault points reproducibly.
//!
//! It is the transport's one fault injector: reset every accept, die
//! mid-stream at an exact byte, dribble writes, and tear frames across
//! arbitrary syscall boundaries. The write arithmetic lives here too
//! (`FaultPlan::clamp_write`), so it is tested without a socket and the
//! reactor only sleeps, writes and closes as told.

use std::time::Duration;

/// Deterministic server-side fault schedule. `Default` is a no-fault plan;
/// every field composes independently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Accept incoming connections and immediately drop them without a
    /// HELLO. The peer has usually already written its HELLO, so the close
    /// lands as an RST (close-with-unread-data), not a graceful FIN.
    pub rst_on_accept: bool,
    /// Abruptly sever each connection once it has written this many
    /// response bytes — no ERROR frame, no drain. From the client's side
    /// the node dies mid-stream (typically mid-CHUNK), which is the
    /// failover trigger the fabric router recovers from.
    pub kill_after_write_bytes: Option<u64>,
    /// Sleep this long before every write syscall. Combined with
    /// [`FaultPlan::torn_write_bytes`] this turns a response into a
    /// mid-frame dribble — the slow-peer shape clients must tolerate.
    pub write_delay: Option<Duration>,
    /// Cap each write syscall to this many bytes, tearing CHUNK frames
    /// (and everything else) across arbitrary boundaries. Exercises the
    /// client's partial-frame reassembly; zero is treated as one.
    pub torn_write_bytes: Option<usize>,
}

impl FaultPlan {
    /// A node that dies after writing exactly `bytes` response bytes.
    pub fn kill_at(bytes: u64) -> Self {
        Self {
            kill_after_write_bytes: Some(bytes),
            ..Self::default()
        }
    }

    /// A node that dies at a seed-derived write offset in
    /// `lo..=hi` — the chaos suite's "kill somewhere mid-transfer".
    pub fn seeded_kill(seed: u64, lo: u64, hi: u64) -> Self {
        let span = hi.saturating_sub(lo).saturating_add(1);
        Self::kill_at(lo + splitmix64(seed) % span.max(1))
    }

    /// A node that accepts and immediately resets every connection.
    pub fn accept_rst() -> Self {
        Self {
            rst_on_accept: true,
            ..Self::default()
        }
    }

    /// A node that writes in `bytes`-sized fragments with `delay` between
    /// them (mid-frame stall + torn boundaries).
    pub fn dribble(bytes: usize, delay: Duration) -> Self {
        Self {
            write_delay: Some(delay),
            torn_write_bytes: Some(bytes),
            ..Self::default()
        }
    }

    /// One write syscall's share of `pending` bytes on a connection that
    /// has already written `written`: how many it may take (tear first,
    /// then never past the kill offset, so the cut is byte-exact and seeded
    /// runs reproduce down to the torn frame), and whether the connection
    /// dies once all of them are written. A kill offset already reached
    /// allows no bytes.
    pub(crate) fn clamp_write(&self, written: u64, pending: usize) -> (usize, bool) {
        let take = self
            .torn_write_bytes
            .map_or(pending, |cap| pending.min(cap.max(1)));
        let room = self
            .kill_after_write_bytes
            .map(|at| at.saturating_sub(written));
        match room {
            Some(room) if room <= take as u64 => (room as usize, true),
            _ => (take, false),
        }
    }
}

/// The splitmix64 mixer — one deterministic u64 per seed, good enough to
/// spread fault offsets across a sweep without a rand dependency.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_kill_is_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded_kill(seed, 100, 200);
            let b = FaultPlan::seeded_kill(seed, 100, 200);
            assert_eq!(a, b, "same seed, same plan");
            let at = a.kill_after_write_bytes.unwrap();
            assert!((100..=200).contains(&at), "offset {at} out of range");
        }
        // Different seeds spread across the range.
        let offsets: std::collections::HashSet<u64> = (0..64u64)
            .map(|s| {
                FaultPlan::seeded_kill(s, 0, 1_000_000)
                    .kill_after_write_bytes
                    .unwrap()
            })
            .collect();
        assert!(offsets.len() > 32, "seeds collapse to too few offsets");
    }

    /// Drives `pending` bytes through `clamp_write` as a socket that takes
    /// everything offered would: the syscall sizes, and the byte the
    /// connection died at (if it did).
    fn drive(plan: &FaultPlan, pending: usize) -> (Vec<usize>, Option<u64>) {
        let (mut written, mut writes) = (0u64, Vec::new());
        while (written as usize) < pending {
            let (take, dies) = plan.clamp_write(written, pending - written as usize);
            writes.push(take);
            written += take as u64;
            if dies {
                return (writes, Some(written));
            }
        }
        (writes, None)
    }

    #[test]
    fn kill_lands_on_its_exact_byte_around_a_tear_boundary() {
        // Tears at 10: the boundary under test is byte 20.
        for at in [19, 20, 21] {
            let plan = FaultPlan {
                torn_write_bytes: Some(10),
                ..FaultPlan::kill_at(at)
            };
            let (writes, died) = drive(&plan, 100);
            assert_eq!(died, Some(at), "kill at {at}");
            assert_eq!(writes.iter().sum::<usize>() as u64, at);
            assert!(writes.iter().all(|&w| w <= 10), "kill at {at}: {writes:?}");
        }
        // Untorn, the kill is the first write's whole budget.
        assert_eq!(FaultPlan::kill_at(7).clamp_write(0, 100), (7, true));
        // A kill past the response never fires.
        assert_eq!(drive(&FaultPlan::kill_at(500), 100), (vec![100], None));
        assert_eq!(FaultPlan::default().clamp_write(3, 100), (100, false));
    }

    #[test]
    fn a_zero_tear_tears_as_one() {
        let plan = FaultPlan {
            torn_write_bytes: Some(0),
            ..FaultPlan::default()
        };
        assert_eq!(plan.clamp_write(0, 5), (1, false));
        assert_eq!(drive(&plan, 3), (vec![1, 1, 1], None));
        let dribble = FaultPlan::dribble(0, Duration::from_millis(1));
        assert_eq!(dribble.clamp_write(9, 5), (1, false));
    }

    #[test]
    fn a_passed_kill_offset_allows_no_bytes() {
        let plan = FaultPlan::kill_at(10);
        assert_eq!(plan.clamp_write(10, 5), (0, true));
        assert_eq!(plan.clamp_write(12, 5), (0, true));
    }
}
