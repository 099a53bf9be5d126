//! The broker: retained topics, dynamic subscriber sets, in-flight
//! transformation.

use std::collections::HashMap;

use mxn_dad::{region_runs, Extents, Region};
use mxn_runtime::{InterComm, Result, Src};

use crate::{ToBroker, UpdateMsg, PUB_TAG, SUB_TAG, UPD_TAG};

struct Subscription {
    /// Subscriber's client rank (remote-local on the broker's intercomm).
    rank: usize,
    region: Region,
    scale: f64,
    offset: f64,
}

#[derive(Default)]
struct Topic {
    /// Latest committed field (the retained message), once something has
    /// been published.
    data: Option<(Extents, Vec<f64>)>,
    version: u64,
    subs: Vec<Subscription>,
}

/// Counters reported when the broker shuts down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Commits fanned out.
    pub commits: u64,
    /// Region updates pushed to subscribers.
    pub updates_sent: u64,
    /// Subscriptions accepted over the broker's lifetime.
    pub subscriptions: u64,
    /// Unsubscribes processed.
    pub unsubscribes: u64,
}

/// `region` of the field `values` shaped `extents`, row-major, each value
/// mapped through `map`: copied row by row.
fn read_region(
    extents: &Extents,
    values: &[f64],
    region: &Region,
    map: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(region.len());
    for run in region_runs([&extents.full_region()], region) {
        out.extend(values[run.patch_off..run.patch_off + run.len].iter().map(|&v| map(v)));
    }
    out
}

/// Writes `values`, row-major over `region`, into the field `buf` shaped
/// `extents`, one row per `copy_from_slice`.
fn write_region(extents: &Extents, buf: &mut [f64], region: &Region, values: &[f64]) {
    for run in region_runs([&extents.full_region()], region) {
        let row = &values[run.sub_off..run.sub_off + run.len];
        buf[run.patch_off..run.patch_off + run.len].copy_from_slice(row);
    }
}

fn push_update(ic: &InterComm, name: &str, topic: &Topic, sub: &Subscription) -> Result<bool> {
    let Some((extents, values)) = &topic.data else {
        return Ok(false);
    };
    // Extract + transform the subscriber's region in one pass (the
    // in-flight transformation: the publisher never sees it).
    let out = read_region(extents, values, &sub.region, |v| sub.scale * v + sub.offset);
    ic.send(
        sub.rank,
        UPD_TAG,
        UpdateMsg {
            topic: name.to_string(),
            version: topic.version,
            lo: sub.region.lo().to_vec(),
            hi: sub.region.hi().to_vec(),
            values: out,
        },
    )?;
    Ok(true)
}

/// Runs the broker loop on one rank until a `Shutdown` message arrives.
/// `ic` is the intercomm to the client universe (publishers *and*
/// subscribers live on the remote side; neither knows about the other).
pub fn run_broker(ic: &InterComm) -> Result<BrokerStats> {
    let mut topics: HashMap<String, Topic> = HashMap::new();
    let mut stats = BrokerStats::default();
    loop {
        let (msg, info) = ic.recv_with_info::<ToBroker>(Src::Any, PUB_TAG)?;
        match msg {
            ToBroker::Shutdown => return Ok(stats),
            ToBroker::Subscribe { topic, lo, hi, scale, offset } => {
                topics.entry(topic.clone()).or_default();
                stats.subscriptions += 1;
                let sub =
                    Subscription { rank: info.src, region: Region::new(lo, hi), scale, offset };
                // Late joiner: immediately push the retained version.
                {
                    let t = &topics[&topic];
                    if t.version > 0 && push_update(ic, &topic, t, &sub)? {
                        stats.updates_sent += 1;
                    }
                }
                let entry = topics.get_mut(&topic).expect("just inserted");
                // Replace any previous subscription from the same rank.
                entry.subs.retain(|s| s.rank != info.src);
                entry.subs.push(sub);
                // Ack with the current version so the subscriber can
                // proceed deterministically.
                let v = entry.version;
                ic.send(info.src, SUB_TAG, v)?;
            }
            ToBroker::Unsubscribe { topic } => {
                if let Some(t) = topics.get_mut(&topic) {
                    t.subs.retain(|s| s.rank != info.src);
                    stats.unsubscribes += 1;
                }
                ic.send(info.src, SUB_TAG, 0u64)?;
            }
            ToBroker::Publish { topic, extents, lo, hi, values, commit } => {
                let extents = Extents::new(extents);
                let entry = topics.entry(topic.clone()).or_default();
                let reset = match &entry.data {
                    Some((e, _)) => *e != extents,
                    None => true,
                };
                if reset {
                    // New or re-decomposed topic: fresh retained buffer.
                    entry.data = Some((extents.clone(), vec![0.0; extents.total()]));
                    entry.version = 0;
                }
                let (e, buf) = entry.data.as_mut().expect("just ensured");
                let region = Region::new(lo, hi);
                debug_assert_eq!(region.len(), values.len());
                write_region(e, buf, &region, &values);
                if commit {
                    entry.version += 1;
                    stats.commits += 1;
                    let entry = &topics[&topic];
                    for sub in &entry.subs {
                        if push_update(ic, &topic, entry, sub)? {
                            stats.updates_sent += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_3d_publish_writes_rows_like_the_per_element_walk() {
        let extents = Extents::new([4, 5, 6]);
        let region = Region::new([1, 0, 2], [3, 4, 5]);
        let values: Vec<f64> = (0..region.len()).map(|k| k as f64 * 0.5 - 3.0).collect();
        let base: Vec<f64> = (0..extents.total()).map(|k| -(k as f64)).collect();
        // The per-element write the row copies replaced.
        let mut want = base.clone();
        for (k, idx) in region.iter().enumerate() {
            want[extents.linear(&idx)] = values[k];
        }
        let mut got = base.clone();
        write_region(&extents, &mut got, &region, &values);
        let bytes = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        assert_eq!(bytes(&got), bytes(&want));
        // And the subscriber's transformed extract reads the same rows back.
        let read: Vec<f64> =
            region.iter().map(|idx| 2.0 * want[extents.linear(&idx)] + 1.0).collect();
        assert_eq!(read_region(&extents, &want, &region, |v| 2.0 * v + 1.0), read);
    }
}
