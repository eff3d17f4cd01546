//! TMR voters for the parallel processing mode.
//!
//! §V.B: *"two different voter modules are implemented, depending on fitness
//! comparisons or by pixel by pixel comparisons of the processed image
//! outputs."*
//!
//! * The **fitness voter** compares the per-image fitness of the three arrays
//!   and flags the one that diverges from the other two.  After a permanent
//!   fault has been healed by imitation, the recovered filter may have a
//!   slightly different fitness than its siblings, so the voter supports a
//!   similarity threshold: a divergence smaller than the threshold is not an
//!   error.
//! * The **pixel voter** produces a majority-voted output image so the
//!   filtering stream stays valid while one array misbehaves.  It also counts
//!   how many pixels had to be outvoted, a useful diagnostic.

use ehw_image::image::GrayImage;
use serde::{Deserialize, Serialize};

/// Verdict of the fitness voter for one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitnessVote {
    /// All fitness values agree within the threshold.
    Agreement,
    /// Exactly one array diverges from the other two; its index is reported.
    Divergent {
        /// Index (0–2) of the diverging array.
        array: usize,
    },
    /// No majority could be formed (all three disagree pairwise).
    NoMajority,
}

/// The fitness voter: compares the three per-array fitness values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessVoter {
    /// Maximum absolute fitness difference still considered "equal".
    pub threshold: u64,
}

impl FitnessVoter {
    /// Creates a voter with the given similarity threshold.
    pub fn new(threshold: u64) -> Self {
        Self { threshold }
    }

    /// A strict voter (threshold 0): any difference is a divergence.
    pub(crate) fn strict() -> Self {
        Self::new(0)
    }

    fn close(&self, a: u64, b: u64) -> bool {
        a.abs_diff(b) <= self.threshold
    }

    /// Votes over the three fitness values.
    pub fn vote(&self, fitness: [u64; 3]) -> FitnessVote {
        let ab = self.close(fitness[0], fitness[1]);
        let ac = self.close(fitness[0], fitness[2]);
        let bc = self.close(fitness[1], fitness[2]);
        match (ab, ac, bc) {
            (true, true, true) => FitnessVote::Agreement,
            // Two agree, the third diverges.
            (true, false, false) => FitnessVote::Divergent { array: 2 },
            (false, true, false) => FitnessVote::Divergent { array: 1 },
            (false, false, true) => FitnessVote::Divergent { array: 0 },
            // Degenerate cases (threshold makes "closeness" non-transitive):
            // treat as agreement if at least two pairs agree, otherwise no
            // majority can be formed.
            (true, true, false) | (true, false, true) | (false, true, true) => {
                FitnessVote::Agreement
            }
            (false, false, false) => FitnessVote::NoMajority,
        }
    }
}

impl Default for FitnessVoter {
    fn default() -> Self {
        Self::strict()
    }
}

/// Result of pixel-level majority voting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PixelVoteResult {
    /// The majority-voted image.
    pub image: GrayImage,
    /// Pixels where at least one array disagreed with the majority.
    pub disagreeing_pixels: usize,
    /// Per-array count of pixels in which that array was outvoted.
    pub outvoted: [usize; 3],
}

/// The pixel voter: bit-exact 2-out-of-3 majority per pixel.  When all three
/// values differ, the median value is used (the standard fallback for
/// non-binary TMR voting on numeric streams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PixelVoter;

impl PixelVoter {
    /// Votes over the three output images.
    ///
    /// # Panics
    /// Panics if the images do not share the same dimensions.
    pub fn vote(&self, outputs: [&GrayImage; 3]) -> PixelVoteResult {
        let (w, h) = (outputs[0].width(), outputs[0].height());
        for img in &outputs[1..] {
            assert_eq!(img.width(), w, "pixel voter width mismatch");
            assert_eq!(img.height(), h, "pixel voter height mismatch");
        }

        let mut voted = Vec::with_capacity(w * h);
        let mut disagreeing = 0usize;
        let mut outvoted = [0usize; 3];

        let slices = [
            outputs[0].as_slice(),
            outputs[1].as_slice(),
            outputs[2].as_slice(),
        ];
        for ((&p0, &p1), &p2) in slices[0].iter().zip(slices[1]).zip(slices[2]) {
            let p = [p0, p1, p2];
            let majority = if p[0] == p[1] || p[0] == p[2] {
                p[0]
            } else if p[1] == p[2] {
                p[1]
            } else {
                // All different: take the median value.
                let mut s = p;
                s.sort_unstable();
                s[1]
            };
            let mut any_disagreement = false;
            for (a, &value) in p.iter().enumerate() {
                if value != majority {
                    outvoted[a] += 1;
                    any_disagreement = true;
                }
            }
            if any_disagreement {
                disagreeing += 1;
            }
            voted.push(majority);
        }

        PixelVoteResult {
            image: GrayImage::from_vec(w, h, voted),
            disagreeing_pixels: disagreeing,
            outvoted,
        }
    }
}

#[cfg(test)]
impl PixelVoteResult {
    /// Index of the array most often outvoted — the prime suspect for a
    /// fault — provided it was outvoted at all.
    pub(crate) fn most_suspicious(&self) -> Option<usize> {
        let (idx, &count) = self
            .outvoted
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("three arrays");
        if count > 0 {
            Some(idx)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;

    #[test]
    fn fitness_agreement_when_all_equal() {
        let voter = FitnessVoter::strict();
        assert_eq!(voter.vote([100, 100, 100]), FitnessVote::Agreement);
    }

    #[test]
    fn fitness_divergence_identifies_the_outlier() {
        let voter = FitnessVoter::strict();
        assert_eq!(
            voter.vote([100, 100, 999]),
            FitnessVote::Divergent { array: 2 }
        );
        assert_eq!(
            voter.vote([100, 999, 100]),
            FitnessVote::Divergent { array: 1 }
        );
        assert_eq!(
            voter.vote([999, 100, 100]),
            FitnessVote::Divergent { array: 0 }
        );
    }

    #[test]
    fn fitness_no_majority_when_all_differ() {
        let voter = FitnessVoter::strict();
        assert_eq!(voter.vote([1, 2, 3]), FitnessVote::NoMajority);
    }

    #[test]
    fn threshold_tolerates_recovered_filters() {
        // §V.B: after recovery the healed array's fitness may differ slightly;
        // a similarity threshold prevents spurious error detection.
        let strict = FitnessVoter::strict();
        let tolerant = FitnessVoter::new(50);
        let fitness = [1000, 1000, 1030];
        assert_eq!(strict.vote(fitness), FitnessVote::Divergent { array: 2 });
        assert_eq!(tolerant.vote(fitness), FitnessVote::Agreement);
    }

    #[test]
    fn threshold_still_detects_large_divergence() {
        let tolerant = FitnessVoter::new(50);
        assert_eq!(
            tolerant.vote([1000, 1000, 5000]),
            FitnessVote::Divergent { array: 2 }
        );
    }

    #[test]
    fn pixel_voter_passes_identical_streams_through() {
        let img = synth::shapes(32, 32, 3);
        let result = PixelVoter.vote([&img, &img, &img]);
        assert_eq!(result.image, img);
        assert_eq!(result.disagreeing_pixels, 0);
        assert_eq!(result.outvoted, [0, 0, 0]);
        assert_eq!(result.most_suspicious(), None);
    }

    #[test]
    fn pixel_voter_masks_a_single_faulty_stream() {
        let good = synth::shapes(32, 32, 3);
        let faulty = good.map(|p| p.wrapping_add(93));
        let result = PixelVoter.vote([&good, &faulty, &good]);
        assert_eq!(result.image, good);
        assert!(result.disagreeing_pixels > 0);
        assert_eq!(result.most_suspicious(), Some(1));
        assert_eq!(result.outvoted[0], 0);
        assert_eq!(result.outvoted[2], 0);
    }

    #[test]
    fn pixel_voter_median_fallback_when_all_differ() {
        let a = GrayImage::new(2, 2, 10);
        let b = GrayImage::new(2, 2, 20);
        let c = GrayImage::new(2, 2, 200);
        let result = PixelVoter.vote([&a, &b, &c]);
        assert!(result.image.pixels().all(|p| p == 20));
        assert_eq!(result.disagreeing_pixels, 4);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn pixel_voter_rejects_mismatched_dimensions() {
        let a = GrayImage::new(2, 2, 0);
        let b = GrayImage::new(2, 3, 0);
        let c = GrayImage::new(2, 2, 0);
        let _ = PixelVoter.vote([&a, &b, &c]);
    }

    // ------------------------------------------------------------------
    // TMR edge cases (§V.B): the failure modes majority voting can and
    // cannot mask.
    // ------------------------------------------------------------------

    #[test]
    fn all_three_disagreeing_streams_leave_no_reliable_suspect() {
        // When every array misbehaves differently the median fallback keeps
        // the stream alive, but both extreme streams accumulate outvoted
        // pixels — no single suspect can be identified with confidence.
        let a = GrayImage::new(4, 4, 10);
        let b = GrayImage::new(4, 4, 90);
        let c = GrayImage::new(4, 4, 250);
        let result = PixelVoter.vote([&a, &b, &c]);
        assert_eq!(result.disagreeing_pixels, 16);
        assert_eq!(
            result.outvoted,
            [16, 0, 16],
            "only the median stream survives"
        );
        // The fitness voter reports the same situation as NoMajority.
        assert_eq!(
            FitnessVoter::strict().vote([10, 90, 250]),
            FitnessVote::NoMajority
        );
    }

    #[test]
    fn two_faulty_arrays_agreeing_on_the_wrong_value_defeat_tmr() {
        // The classic TMR blind spot: a common-mode fault.  Two arrays that
        // fail *identically* outvote the healthy one — the voter elects the
        // wrong value and blames the good array.  This is why the platform
        // evolves per-array circuit diversity rather than replicating one
        // bitstream when common-mode faults are a concern.
        let good = synth::shapes(16, 16, 3);
        let faulty = good.map(|p| p.wrapping_add(40));
        let result = PixelVoter.vote([&faulty, &good, &faulty]);
        assert_eq!(
            result.image, faulty,
            "the agreeing wrong pair wins the vote"
        );
        assert_eq!(
            result.most_suspicious(),
            Some(1),
            "the healthy array is blamed"
        );
        // The fitness voter has the same blind spot.
        assert_eq!(
            FitnessVoter::strict().vote([500, 100, 500]),
            FitnessVote::Divergent { array: 1 }
        );
    }

    #[test]
    fn voter_masks_a_permanent_fault_and_identifies_the_damaged_array() {
        use crate::platform::EhwPlatform;
        use ehw_fabric::fault::FaultKind;

        // TMR bring-up: the same circuit in all three arrays, then a
        // permanent (LPD) fault in array 1's active row.
        let mut platform = EhwPlatform::paper_three_arrays();
        let img = synth::shapes(32, 32, 3);
        let clean = platform.acb(0).raw_output(&img);
        platform.inject_pe_fault(1, 0, 1, FaultKind::Lpd);

        let outputs = platform.process_parallel(&img);
        let result = PixelVoter.vote([&outputs[0], &outputs[1], &outputs[2]]);
        assert_eq!(
            result.image, clean,
            "two healthy arrays outvote the damaged one"
        );
        assert_eq!(result.most_suspicious(), Some(1));
        assert_eq!(result.outvoted[0], 0);
        assert_eq!(result.outvoted[2], 0);

        // Scrubbing cannot repair an LPD fault, so the voter keeps flagging
        // array 1 until recovery re-routes around the damage.
        platform.scrub_array(1);
        assert!(platform.array_has_permanent_fault(1));
        let after_scrub = platform.process_parallel(&img);
        let verdict = PixelVoter.vote([&after_scrub[0], &after_scrub[1], &after_scrub[2]]);
        assert_eq!(verdict.image, clean);
        assert_eq!(verdict.most_suspicious(), Some(1));
    }

    #[test]
    fn voter_agrees_again_after_a_transient_fault_is_scrubbed() {
        use crate::platform::EhwPlatform;
        use ehw_fabric::fault::FaultKind;

        let mut platform = EhwPlatform::paper_three_arrays();
        let img = synth::shapes(32, 32, 3);
        platform.inject_pe_fault(2, 0, 2, FaultKind::Seu);
        let outputs = platform.process_parallel(&img);
        assert_eq!(
            PixelVoter
                .vote([&outputs[0], &outputs[1], &outputs[2]])
                .most_suspicious(),
            Some(2)
        );

        platform.scrub_array(2);
        let healed = platform.process_parallel(&img);
        let verdict = PixelVoter.vote([&healed[0], &healed[1], &healed[2]]);
        assert_eq!(verdict.disagreeing_pixels, 0);
        assert_eq!(verdict.most_suspicious(), None);
    }
}
