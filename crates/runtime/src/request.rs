//! Nonblocking point-to-point operations.
//!
//! Sends in this runtime are eager (they deposit the payload and return), so
//! there is no send request. [`RecvRequest`] is a genuine deferred receive: it pins
//! the `(src, tag)` pattern at post time and can be tested or waited on
//! later, letting components overlap computation with communication — the
//! "asynchronous, nonblocking transfers" feature of Section 3 of the paper.

use std::time::Duration;

use crate::comm::Comm;
use crate::envelope::{Src, Tag};
use crate::error::Result;

/// Handle for a nonblocking receive of a `T`.
#[must_use = "irecv does nothing until waited or tested"]
pub struct RecvRequest<'c, T> {
    comm: &'c Comm,
    src: Src,
    tag: Tag,
    received: Option<T>,
}

impl<'c, T: 'static> RecvRequest<'c, T> {
    /// Polls for completion; returns `true` once the message has been
    /// matched (the payload is then held inside the request).
    pub fn test(&mut self) -> Result<bool> {
        if self.received.is_some() {
            return Ok(true);
        }
        if let Some((v, _)) = self.comm.try_recv::<T>(self.src, self.tag)? {
            self.received = Some(v);
            return Ok(true);
        }
        Ok(false)
    }

    /// Blocks until the message arrives and returns the payload.
    pub fn wait(mut self) -> Result<T> {
        if let Some(v) = self.received.take() {
            return Ok(v);
        }
        self.comm.recv(self.src, self.tag)
    }

    /// Blocks with a deadline.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<T> {
        if let Some(v) = self.received.take() {
            return Ok(v);
        }
        self.comm.recv_timeout(self.src, self.tag, timeout)
    }
}

impl Comm {
    /// Posts a nonblocking receive for a `T` matching `src`/`tag`.
    pub fn irecv<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> RecvRequest<'_, T> {
        RecvRequest { comm: self, src: src.into(), tag: tag.into(), received: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn irecv_test_then_wait() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                // Give rank 1 a moment to post and poll first.
                std::thread::sleep(Duration::from_millis(20));
                c.send(1, 5, 7u8).unwrap();
            } else {
                let mut req = c.irecv::<u8>(0, 5);
                // Not yet there (probabilistically; must not panic either way).
                let _ = req.test().unwrap();
                assert_eq!(req.wait().unwrap(), 7);
            }
        });
    }

    #[test]
    fn irecv_test_consumes_once() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 1, 9u8).unwrap();
            } else {
                let mut req = c.irecv::<u8>(0, 1);
                while !req.test().unwrap() {
                    std::thread::yield_now();
                }
                // test() again is still true, and wait() yields the value.
                assert!(req.test().unwrap());
                assert_eq!(req.wait().unwrap(), 9);
            }
        });
    }

    #[test]
    fn wait_all_collects_in_order() {
        World::run(3, |p| {
            let c = p.world();
            if c.rank() == 0 {
                let reqs = vec![c.irecv::<u64>(1, 0), c.irecv::<u64>(2, 0)];
                let got: Result<Vec<u64>> = reqs.into_iter().map(RecvRequest::wait).collect();
                assert_eq!(got.unwrap(), vec![100, 200]);
            } else {
                c.send(0, 0, c.rank() as u64 * 100).unwrap();
            }
        });
    }

    #[test]
    fn wait_timeout_on_missing_message() {
        World::run(1, |p| {
            let c = p.world();
            let req = c.irecv::<u8>(0, 0);
            assert!(req.wait_timeout(Duration::from_millis(10)).is_err());
        });
    }
}
