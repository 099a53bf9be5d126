//! Order statistics used by the benchmark and by `compare`.

/// Sorts a sample in place (NaN-free by construction: all inputs are
/// durations or counts).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the two middle values when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median(&values)
}

/// First and third quartile of an ascending sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver applies to ten runs. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
/// 0 for fewer than two runs (nothing to compare).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let (q1, q3) = quartiles(&v);
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Latency of an open-loop request, timed from when it was *due*, not from
/// when the generator got round to sending it: a stall charges every
/// request queued behind it. Returns `(latency, lateness)` in the unit of
/// the inputs.
pub fn due_time_latency(due: f64, sent: f64, done: f64) -> (f64, f64) {
    (done - due, (sent - due).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // Ten samples beyond p90 of 100.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.9), 90.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(vec![9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 5, 8, 13, 21], n=4) == [4.0, 8.0, 17.0]
        assert_eq!(quartiles(&[3.0, 5.0, 8.0, 13.0, 21.0]), (4.0, 17.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        // Requests due every 10 units; each takes 2 to serve. The server
        // stalls for 35 during request 1, so requests 2..4 are sent late.
        let service = 2.0;
        let mut now = 0.0f64;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut lateness = Vec::new();
        for k in 0..6 {
            let due = k as f64 * 10.0;
            let sent = now.max(due);
            let stall = if k == 1 { 35.0 } else { 0.0 };
            let done = sent + service + stall;
            let (lat, late) = due_time_latency(due, sent, done);
            from_due.push(lat);
            from_send.push(done - sent);
            lateness.push(late);
            now = done;
        }
        // Timed from the send, only the stalled request looks slow …
        assert_eq!(from_send, vec![2.0, 37.0, 2.0, 2.0, 2.0, 2.0]);
        // … timed from the due time, the backlog behind it shows too.
        assert_eq!(from_due, vec![2.0, 37.0, 29.0, 21.0, 13.0, 5.0]);
        assert_eq!(lateness, vec![0.0, 0.0, 27.0, 19.0, 11.0, 3.0]);
    }
}
