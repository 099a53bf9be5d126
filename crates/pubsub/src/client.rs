//! Publisher and subscriber client handles.

use mxn_dad::{Dad, LocalArray, Region};
use mxn_runtime::{InterComm, Result};

use crate::{ToBroker, UpdateMsg, PUB_TAG, SUB_TAG, UPD_TAG};

/// The in-flight transformation a subscriber requests: `y = scale·x +
/// offset`, applied *at the broker* so endpoints never agree on units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transform {
    /// Multiplicative factor.
    pub scale: f64,
    /// Additive offset.
    pub offset: f64,
}

impl Transform {
    /// The identity transformation.
    pub fn identity() -> Self {
        Transform { scale: 1.0, offset: 0.0 }
    }
}

/// One rank of a publishing cohort.
pub struct Publisher {
    topic: String,
    dad: Dad,
    /// Program-local rank that carries the commit flag (highest publisher
    /// rank, by convention).
    committer: bool,
}

impl Publisher {
    /// Creates a publisher for `topic`, whose field is decomposed by
    /// `dad`; `my_rank`/`nranks` locate this rank in the publishing
    /// cohort.
    pub fn new(topic: &str, dad: Dad, my_rank: usize, nranks: usize) -> Self {
        assert!(my_rank < nranks);
        Publisher { topic: topic.to_string(), dad, committer: my_rank + 1 == nranks }
    }

    /// Publishes this rank's portion. Call on every cohort rank each step;
    /// the broker fans out to subscribers once the commit (from the
    /// highest rank) arrives. The cohort must publish in rank order per
    /// step only in the sense that the committer publishes *after* its own
    /// data is sent — which this method guarantees locally; cross-rank
    /// ordering is handled by a preceding barrier in the caller when the
    /// field must be globally consistent per version.
    pub fn publish(&self, ic: &InterComm, local: &LocalArray<f64>) -> Result<()> {
        for i in 0..local.num_patches() {
            let (region, buf) = local.patch(i);
            let last_patch = i + 1 == local.num_patches();
            ic.send(
                0,
                PUB_TAG,
                ToBroker::Publish {
                    topic: self.topic.clone(),
                    extents: self.dad.extents().dims().to_vec(),
                    lo: region.lo().to_vec(),
                    hi: region.hi().to_vec(),
                    values: buf.to_vec(),
                    commit: self.committer && last_patch,
                },
            )?;
        }
        Ok(())
    }
}

/// A delivered update.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Topic the update belongs to.
    pub topic: String,
    /// The broker's version counter at commit time.
    pub version: u64,
    /// The region this subscriber asked for.
    pub region: Region,
    /// Transformed values, row-major in `region`.
    pub values: Vec<f64>,
}

/// One subscriber rank.
pub struct Subscriber;

impl Subscriber {
    /// Subscribes this rank to `region` of `topic`, with an in-flight
    /// `transform`. Returns the topic's current version (0 = nothing
    /// retained yet); if > 0, a retained [`Update`] is already on its way.
    pub fn subscribe(
        ic: &InterComm,
        topic: &str,
        region: &Region,
        transform: Transform,
    ) -> Result<u64> {
        ic.send(
            0,
            PUB_TAG,
            ToBroker::Subscribe {
                topic: topic.to_string(),
                lo: region.lo().to_vec(),
                hi: region.hi().to_vec(),
                scale: transform.scale,
                offset: transform.offset,
            },
        )?;
        ic.recv(0, SUB_TAG)
    }

    /// Removes this rank's subscription; in-flight updates may still be
    /// queued and should be drained or ignored by version.
    pub fn unsubscribe(ic: &InterComm, topic: &str) -> Result<()> {
        ic.send(0, PUB_TAG, ToBroker::Unsubscribe { topic: topic.to_string() })?;
        let _: u64 = ic.recv(0, SUB_TAG)?;
        Ok(())
    }

    /// Blocks for the next update pushed to this rank.
    pub fn next_update(ic: &InterComm) -> Result<Update> {
        let m: UpdateMsg = ic.recv(0, UPD_TAG)?;
        Ok(Update {
            topic: m.topic,
            version: m.version,
            region: Region::new(m.lo, m.hi),
            values: m.values,
        })
    }
}

/// Administrative shutdown of the broker.
pub fn shutdown_broker(ic: &InterComm) -> Result<()> {
    ic.send(0, PUB_TAG, ToBroker::Shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::run_broker;
    use mxn_dad::Extents;
    use mxn_runtime::Universe;

    /// Clients: ranks 0-1 publish (2-rank cohort), rank 2 subscribes, rank
    /// 3 joins late and leaves early. Broker: the second program.
    #[test]
    fn dynamic_pubsub_with_inflight_transform() {
        Universe::run(&[4, 1], |_, ctx| {
            if ctx.program == 1 {
                let stats = run_broker(ctx.intercomm(0)).unwrap();
                assert_eq!(stats.commits, 3);
                assert_eq!(stats.subscriptions, 2);
                assert_eq!(stats.unsubscribes, 1);
                return;
            }
            let ic = ctx.intercomm(1);
            let rank = ctx.comm.rank();
            let dad = Dad::block(Extents::new([8]), &[2]).unwrap();
            match rank {
                0 | 1 => {
                    // Publishing cohort: field value = step * 100 + index.
                    let publisher = Publisher::new("pressure", dad.clone(), rank, 2);
                    assert_eq!(publisher.committer, rank == 1);
                    // Wait for the early subscriber to be registered so the
                    // version sequence below is deterministic.
                    if rank == 0 {
                        ctx.comm.recv::<()>(2, 44).unwrap();
                    }
                    for step in 1..=3u64 {
                        let local = LocalArray::from_fn(&dad, rank, |idx| {
                            step as f64 * 100.0 + idx[0] as f64
                        });
                        // Strict alternation between the two publisher
                        // ranks so every committed version is consistent:
                        // rank 0 publishes, hands the token to rank 1 (the
                        // committer), and waits for it back before the
                        // next step.
                        if rank == 0 {
                            publisher.publish(ic, &local).unwrap();
                            ctx.comm.send(1, 42, ()).unwrap();
                            ctx.comm.recv::<()>(1, 45).unwrap();
                        } else {
                            ctx.comm.recv::<()>(0, 42).unwrap();
                            publisher.publish(ic, &local).unwrap();
                            ctx.comm.send(0, 45, ()).unwrap();
                        }
                    }
                    // Signal subscribers that publishing is done.
                    if rank == 0 {
                        ctx.comm.send(2, 43, ()).unwrap();
                        ctx.comm.send(3, 43, ()).unwrap();
                    }
                }
                2 => {
                    // Early subscriber, with a Pa→hPa-style transform.
                    let region = Region::new([2], [6]);
                    let v0 = Subscriber::subscribe(
                        ic,
                        "pressure",
                        &region,
                        Transform { scale: 0.01, offset: 0.0 },
                    )
                    .unwrap();
                    assert_eq!(v0, 0, "nothing retained yet");
                    // Release the publishers.
                    ctx.comm.send(0, 44, ()).unwrap();
                    // Receives one update per commit.
                    for step in 1..=3u64 {
                        let u = Subscriber::next_update(ic).unwrap();
                        assert_eq!(u.version, step);
                        assert_eq!(u.region, region);
                        for (k, &v) in u.values.iter().enumerate() {
                            let idx = 2 + k;
                            let raw = step as f64 * 100.0 + idx as f64;
                            assert!((v - raw * 0.01).abs() < 1e-12);
                        }
                    }
                    ctx.comm.recv::<()>(0, 43).unwrap();
                }
                _ => {
                    // Late joiner: waits until publishing finished, then
                    // subscribes and immediately receives the retained
                    // version 3.
                    ctx.comm.recv::<()>(0, 43).unwrap();
                    let region = Region::new([0], [8]);
                    let v = Subscriber::subscribe(ic, "pressure", &region, Transform::identity())
                        .unwrap();
                    assert_eq!(v, 3);
                    let u = Subscriber::next_update(ic).unwrap();
                    assert_eq!(u.version, 3);
                    assert_eq!(u.values[7], 307.0);
                    // Departure: unsubscribe, then tell the world we're done.
                    Subscriber::unsubscribe(ic, "pressure").unwrap();
                    // Shut the broker down (admin role).
                    shutdown_broker(ic).unwrap();
                }
            }
        });
    }

    #[test]
    fn publisher_departure_keeps_topic_alive() {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 1 {
                run_broker(ctx.intercomm(0)).unwrap();
                return;
            }
            let ic = ctx.intercomm(1);
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            if ctx.comm.rank() == 0 {
                // A short-lived publisher: one commit, then it "departs".
                let p = Publisher::new("t", dad.clone(), 0, 1);
                let local = LocalArray::from_fn(&dad, 0, |idx| idx[0] as f64 + 1.0);
                p.publish(ic, &local).unwrap();
                ctx.comm.send(1, 0, ()).unwrap();
            } else {
                ctx.comm.recv::<()>(0, 0).unwrap();
                // Subscriber arrives after the publisher is long gone; the
                // retained message still serves it.
                let region = Region::new([0], [4]);
                let v = Subscriber::subscribe(ic, "t", &region, Transform::identity()).unwrap();
                assert_eq!(v, 1);
                let u = Subscriber::next_update(ic).unwrap();
                assert_eq!(u.values, vec![1.0, 2.0, 3.0, 4.0]);
                shutdown_broker(ic).unwrap();
            }
        });
    }

    #[test]
    fn resubscription_replaces_region() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 1 {
                let stats = run_broker(ctx.intercomm(0)).unwrap();
                // Two subscriptions from the same rank → one active.
                assert_eq!(stats.subscriptions, 2);
                return;
            }
            let ic = ctx.intercomm(1);
            let dad = Dad::block(Extents::new([6]), &[1]).unwrap();
            let p = Publisher::new("x", dad.clone(), 0, 1);
            Subscriber::subscribe(ic, "x", &Region::new([0], [2]), Transform::identity()).unwrap();
            // Replace with a different region before any publish.
            Subscriber::subscribe(ic, "x", &Region::new([4], [6]), Transform::identity()).unwrap();
            let local = LocalArray::from_fn(&dad, 0, |idx| idx[0] as f64);
            p.publish(ic, &local).unwrap();
            let u = Subscriber::next_update(ic).unwrap();
            assert_eq!(u.region, Region::new([4], [6]));
            assert_eq!(u.values, vec![4.0, 5.0]);
            // Exactly one update (the old region did not also fire).
            assert!(ic.try_recv::<UpdateMsg>(0, UPD_TAG).unwrap().is_none());
            shutdown_broker(ic).unwrap();
        });
    }
}
