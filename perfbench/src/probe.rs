//! Classifying runtime steps by what they did, from the metrics tap's
//! counters read before and after each [`PipelinedSystem::step`].
//!
//! [`PipelinedSystem::step`]: crowdlearn_runtime::PipelinedSystem::step

use crowdlearn_runtime::MetricsTap;

/// The tap counters a step can move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapCounters {
    /// Cycles admitted to the window.
    pub admitted: u64,
    /// Cycles finalized.
    pub closed: u64,
    /// Fresh HIT posts.
    pub posted: u64,
    /// HITs answered within the timeout.
    pub answered: u64,
    /// HITs that reached their timeout.
    pub timed_out: u64,
    /// Timed-out HITs reposted.
    pub reposted: u64,
    /// Waited-out answers absorbed late.
    pub late: u64,
    /// Fault starts, fault ends, breaker transitions and degraded cycles.
    pub faults: u64,
}

impl TapCounters {
    /// Reads the counters off `tap`.
    pub fn read(tap: &MetricsTap) -> Self {
        Self {
            admitted: tap.cycles_admitted(),
            closed: tap.cycles_closed(),
            posted: tap.hits_posted(),
            answered: tap.hits_answered(),
            timed_out: tap.hits_timed_out(),
            reposted: tap.hits_reposted(),
            late: tap.late_answers(),
            faults: tap.faults_started()
                + tap.faults_ended()
                + tap.breaker_transitions()
                + tap.degraded_cycles(),
        }
    }
}

/// What one step did, most significant effect first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepKind {
    /// A cycle finalized (MIC weight update and committee retrain).
    Close,
    /// A HIT's answer was absorbed (CQC inference, IPD feedback).
    Answer,
    /// A waited-out answer was absorbed late.
    Late,
    /// A HIT timed out (and possibly reposted).
    Timeout,
    /// A fresh HIT went up (IPD selection, platform post).
    Post,
    /// A cycle entered the window (committee inference, QSS).
    Admit,
    /// A fault boundary, breaker move or degraded cycle.
    Fault,
    /// None of the above moved (an arrival queued behind the window, a
    /// retrain completion, a probe that changed nothing).
    Other,
}

impl StepKind {
    /// Every kind, in report order.
    pub const ALL: [StepKind; 8] = [
        StepKind::Close,
        StepKind::Answer,
        StepKind::Late,
        StepKind::Timeout,
        StepKind::Post,
        StepKind::Admit,
        StepKind::Fault,
        StepKind::Other,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Close => "close",
            StepKind::Answer => "answer",
            StepKind::Late => "late",
            StepKind::Timeout => "timeout",
            StepKind::Post => "post",
            StepKind::Admit => "admit",
            StepKind::Fault => "fault",
            StepKind::Other => "other",
        }
    }

    /// Classifies a step from the counters before and after it. A step
    /// often moves several counters (an answer also posts the cycle's next
    /// query); it takes the kind of the costliest work it did.
    pub fn classify(before: &TapCounters, after: &TapCounters) -> Self {
        if after.closed > before.closed {
            StepKind::Close
        } else if after.answered > before.answered {
            StepKind::Answer
        } else if after.late > before.late {
            StepKind::Late
        } else if after.timed_out > before.timed_out || after.reposted > before.reposted {
            StepKind::Timeout
        } else if after.posted > before.posted {
            StepKind::Post
        } else if after.admitted > before.admitted {
            StepKind::Admit
        } else if after.faults > before.faults {
            StepKind::Fault
        } else {
            StepKind::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_takes_the_most_significant_delta() {
        let base = TapCounters::default();
        let with = |f: fn(&mut TapCounters)| {
            let mut c = base;
            f(&mut c);
            c
        };
        let answer_and_post = with(|c| {
            c.answered += 1;
            c.posted += 1;
        });
        assert_eq!(
            StepKind::classify(&base, &answer_and_post),
            StepKind::Answer
        );
        let close_and_admit = with(|c| {
            c.closed += 1;
            c.admitted += 1;
            c.posted += 1;
        });
        assert_eq!(StepKind::classify(&base, &close_and_admit), StepKind::Close);
        let timeout_repost = with(|c| {
            c.timed_out += 1;
            c.reposted += 1;
        });
        assert_eq!(
            StepKind::classify(&base, &timeout_repost),
            StepKind::Timeout
        );
        let post = with(|c| c.posted += 1);
        assert_eq!(StepKind::classify(&base, &post), StepKind::Post);
        let admit = with(|c| c.admitted += 1);
        assert_eq!(StepKind::classify(&base, &admit), StepKind::Admit);
        let late = with(|c| c.late += 1);
        assert_eq!(StepKind::classify(&base, &late), StepKind::Late);
        let fault = with(|c| c.faults += 2);
        assert_eq!(StepKind::classify(&base, &fault), StepKind::Fault);
        assert_eq!(StepKind::classify(&base, &base), StepKind::Other);
    }

    #[test]
    fn kind_names_are_distinct() {
        let mut names: Vec<&str> = StepKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StepKind::ALL.len());
    }
}
