//! Timestamp matching rules.
//!
//! "The key idea for the coordination specification is the use of
//! timestamps to determine when a data transfer will occur, via various
//! types of matching criteria" (paper §4.4, after Wu & Sussman \[41\]).
//!
//! A rule decides, given the exporter's buffered version timestamps and an
//! import request timestamp, *which* exported version (if any) satisfies
//! the request — and, crucially for a live coupling, *when* that decision
//! becomes final (no later export could change it). The decision logic is
//! pure, so it is testable exhaustively and both sides of a coupling can
//! evaluate it independently and agree.

/// A timestamp matching criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchRule {
    /// The request time must exactly equal an exported version's time.
    Exact,
    /// Match the newest version at or before the request time.
    LowerBound,
    /// Match the oldest version at or after the request time.
    UpperBound,
    /// Match the version closest to the request time within `tol`.
    Nearest {
        /// Maximum |version − request| accepted.
        tol: f64,
    },
    /// Match the newest version at or before the request that falls on the
    /// regular grid `start + k·every` — the cadence used when components
    /// couple every few time-steps.
    RegularInterval {
        /// First grid point.
        start: f64,
        /// Grid spacing (> 0).
        every: f64,
    },
}

/// The outcome of evaluating a rule against the version buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchDecision {
    /// Cannot be decided yet: a future export could still produce (or
    /// improve) the match. The importer must wait.
    Pending,
    /// Final: this version satisfies the request.
    Matched {
        /// Timestamp of the matched version.
        version: f64,
    },
    /// Final: no version satisfies the request (and none ever will).
    NoMatch,
}

impl MatchRule {
    fn on_grid(&self, t: f64) -> bool {
        match *self {
            MatchRule::RegularInterval { start, every } => {
                let k = ((t - start) / every).round();
                (start + k * every - t).abs() < 1e-9 && t >= start - 1e-9
            }
            _ => true,
        }
    }

    /// Evaluates the rule. `versions` are the buffered export timestamps in
    /// ascending order; `frontier` is the newest time the exporter has
    /// reached (`f64::INFINITY` once the exporter has closed its stream).
    pub fn decide(&self, versions: &[f64], frontier: f64, request: f64) -> MatchDecision {
        debug_assert!(versions.windows(2).all(|w| w[0] < w[1]), "versions ascending");
        match *self {
            MatchRule::Exact => {
                if versions.contains(&request) {
                    MatchDecision::Matched { version: request }
                } else if frontier >= request {
                    MatchDecision::NoMatch
                } else {
                    MatchDecision::Pending
                }
            }
            MatchRule::LowerBound => {
                if frontier < request {
                    // A better (newer ≤ request) version may still arrive.
                    MatchDecision::Pending
                } else {
                    match versions.iter().rev().find(|&&v| v <= request) {
                        Some(&v) => MatchDecision::Matched { version: v },
                        None => MatchDecision::NoMatch,
                    }
                }
            }
            MatchRule::UpperBound => {
                // The first version ≥ request is final the moment it exists.
                match versions.iter().find(|&&v| v >= request) {
                    Some(&v) => MatchDecision::Matched { version: v },
                    None if frontier.is_infinite() => MatchDecision::NoMatch,
                    None => MatchDecision::Pending,
                }
            }
            MatchRule::Nearest { tol } => {
                let best =
                    versions.iter().copied().filter(|v| (v - request).abs() <= tol).min_by(
                        |a, b| (a - request).abs().partial_cmp(&(b - request).abs()).unwrap(),
                    );
                match best {
                    // An exact hit cannot be improved.
                    Some(v) if v == request => MatchDecision::Matched { version: v },
                    // Otherwise final only once no closer version can arrive.
                    Some(v) if frontier >= request + tol => MatchDecision::Matched { version: v },
                    None if frontier >= request + tol => MatchDecision::NoMatch,
                    _ => MatchDecision::Pending,
                }
            }
            MatchRule::RegularInterval { .. } => {
                if frontier < request {
                    MatchDecision::Pending
                } else {
                    match versions.iter().rev().find(|&&v| v <= request && self.on_grid(v)) {
                        Some(&v) => MatchDecision::Matched { version: v },
                        None => MatchDecision::NoMatch,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: &[f64] = &[0.0, 1.0, 2.0, 3.0];

    #[test]
    fn exact_matches_and_rejects() {
        assert_eq!(MatchRule::Exact.decide(V, 3.0, 2.0), MatchDecision::Matched { version: 2.0 });
        assert_eq!(MatchRule::Exact.decide(V, 3.0, 2.5), MatchDecision::NoMatch);
        assert_eq!(MatchRule::Exact.decide(V, 3.0, 4.0), MatchDecision::Pending);
        assert_eq!(MatchRule::Exact.decide(V, f64::INFINITY, 4.0), MatchDecision::NoMatch);
    }

    #[test]
    fn lower_bound_waits_for_frontier() {
        let r = MatchRule::LowerBound;
        // Frontier hasn't reached the request: a newer v ≤ 2.5 could come.
        assert_eq!(r.decide(V, 2.0, 2.5), MatchDecision::Pending);
        assert_eq!(r.decide(V, 2.5, 2.5), MatchDecision::Matched { version: 2.0 });
        assert_eq!(r.decide(V, 3.0, 10.0), MatchDecision::Pending);
        assert_eq!(r.decide(V, f64::INFINITY, 10.0), MatchDecision::Matched { version: 3.0 });
        assert_eq!(r.decide(&[2.0], 5.0, 1.0), MatchDecision::NoMatch);
    }

    #[test]
    fn upper_bound_matches_as_soon_as_available() {
        let r = MatchRule::UpperBound;
        assert_eq!(r.decide(V, 3.0, 1.5), MatchDecision::Matched { version: 2.0 });
        assert_eq!(r.decide(V, 3.0, 3.5), MatchDecision::Pending);
        assert_eq!(r.decide(V, f64::INFINITY, 3.5), MatchDecision::NoMatch);
        // Exact frontier hit.
        assert_eq!(r.decide(V, 3.0, 3.0), MatchDecision::Matched { version: 3.0 });
    }

    #[test]
    fn nearest_respects_tolerance_and_finality() {
        let r = MatchRule::Nearest { tol: 0.4 };
        // 2.3 → nearest in [1.9, 2.7] is 2.0, final once frontier ≥ 2.7.
        assert_eq!(r.decide(V, 2.5, 2.3), MatchDecision::Pending);
        assert_eq!(r.decide(V, 2.7, 2.3), MatchDecision::Matched { version: 2.0 });
        // Exact hit decides immediately.
        assert_eq!(r.decide(V, 2.0, 2.0), MatchDecision::Matched { version: 2.0 });
        // Outside tolerance everywhere.
        assert_eq!(r.decide(&[0.0], 10.0, 5.0), MatchDecision::NoMatch);
    }

    #[test]
    fn nearest_prefers_closest_side() {
        let r = MatchRule::Nearest { tol: 1.0 };
        assert_eq!(r.decide(V, 10.0, 2.4), MatchDecision::Matched { version: 2.0 });
        assert_eq!(r.decide(V, 10.0, 2.6), MatchDecision::Matched { version: 3.0 });
    }

    #[test]
    fn regular_interval_snaps_to_grid() {
        let r = MatchRule::RegularInterval { start: 0.0, every: 2.0 };
        let v = &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        // Request 5.0 → newest grid version ≤ 5.0 is 4.0.
        assert_eq!(r.decide(v, 5.0, 5.0), MatchDecision::Matched { version: 4.0 });
        // Off-grid versions are ignored even when newer.
        assert_eq!(r.decide(&[0.0, 3.0], 5.0, 5.0), MatchDecision::Matched { version: 0.0 });
        assert_eq!(r.decide(&[1.0, 3.0], 5.0, 5.0), MatchDecision::NoMatch);
        assert_eq!(r.decide(v, 4.0, 5.0), MatchDecision::Pending);
    }

    #[test]
    fn empty_buffer_cases() {
        assert_eq!(MatchRule::Exact.decide(&[], 0.0, 1.0), MatchDecision::Pending);
        assert_eq!(MatchRule::LowerBound.decide(&[], f64::INFINITY, 1.0), MatchDecision::NoMatch);
        assert_eq!(MatchRule::UpperBound.decide(&[], 5.0, 1.0), MatchDecision::Pending);
    }
}
