//! Host baselines and single-layer replays.
//!
//! Baselines use no `mxn` code: they say what the box can do, so a layer's
//! rate reads as a fraction of it. Replays time one wire layer's public
//! function on a message the workload really sends.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use mxn_wire::{crc32, decode_value, encode_value, Frame, FrameKind, FrameReader};

use crate::stats::median_of;

/// Median seconds per call of `f`, over as many calls as fit in `budget`
/// (at least 5, at most 2000).
pub fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (began.elapsed() < budget && samples.len() < 2000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median_of(samples)
}

/// Plain single-threaded copy of `bytes` bytes, GB/s.
pub fn memcpy_gb_per_s(bytes: usize, budget: Duration) -> f64 {
    let src = vec![0x5au8; bytes];
    let mut dst = vec![0u8; bytes];
    let secs = median_secs(budget, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    bytes as f64 / secs / 1e9
}

/// One-way stream of 1 MiB writes over a bare `UnixStream` pair, GB/s.
pub fn uds_raw_gb_per_s(budget: Duration) -> f64 {
    const CHUNK: usize = 1 << 20;
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    let reader = std::thread::spawn(move || {
        let mut buf = vec![0u8; 1 << 16];
        let mut total = 0usize;
        loop {
            match rx.read(&mut buf) {
                Ok(0) | Err(_) => return total,
                Ok(n) => total += n,
            }
        }
    });
    let chunk = vec![0xa5u8; CHUNK];
    let began = Instant::now();
    let mut sent = 0usize;
    while sent < 8 * CHUNK || began.elapsed() < budget {
        tx.write_all(&chunk).expect("raw uds write");
        sent += CHUNK;
    }
    drop(tx);
    let received = reader.join().expect("raw uds reader");
    let secs = began.elapsed().as_secs_f64();
    assert_eq!(received, sent, "raw uds stream lost bytes");
    sent as f64 / secs / 1e9
}

/// 64-byte ping-pong over a bare `UnixStream` pair, round trip in µs.
pub fn uds_raw_rtt_us(budget: Duration) -> f64 {
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        while b.read_exact(&mut buf).is_ok() {
            if b.write_all(&buf).is_err() {
                return;
            }
        }
    });
    let mut buf = [7u8; 64];
    let secs = median_secs(budget, || {
        a.write_all(&buf).expect("ping");
        a.read_exact(&mut buf).expect("pong");
    });
    drop(a);
    echo.join().expect("raw uds echo");
    secs * 1e6
}

/// Seconds per message for each wire layer, replayed on `msg`.
#[derive(Debug, Clone, Copy)]
pub struct WireReplay {
    pub encoded_bytes: usize,
    pub codec_encode_s: f64,
    pub codec_decode_s: f64,
    pub crc_s: f64,
    /// `Frame::encode`: header, both CRCs and the copy into the frame.
    pub frame_encode_s: f64,
    /// `FrameReader::feed` + `next`: copy in, both CRC checks, copy out.
    pub frame_decode_s: f64,
}

pub fn wire_replay(msg: &Vec<f64>, budget: Duration) -> WireReplay {
    let each = budget / 5;
    let bytes = encode_value(msg);
    let codec_encode_s = median_secs(each, || {
        black_box(encode_value(black_box(msg)));
    });
    let codec_decode_s = median_secs(each, || {
        black_box(decode_value::<Vec<f64>>(black_box(&bytes)).expect("decode what encode wrote"));
    });
    let crc_s = median_secs(each, || {
        black_box(crc32(black_box(&bytes)));
    });
    let frame = Frame {
        kind: FrameKind::Data,
        src: 0,
        context: 7,
        tag: 1,
        seq: 1,
        codec: 15,
        payload: bytes.clone(),
    };
    let frame_encode_s = median_secs(each, || {
        black_box(black_box(&frame).encode());
    });
    let framed = frame.encode();
    let frame_decode_s = median_secs(each, || {
        let mut reader = FrameReader::new();
        reader.feed(black_box(&framed));
        let got = reader.next().expect("a whole frame").expect("an intact frame");
        assert_eq!(got.payload.len(), bytes.len());
        black_box(got);
    });
    WireReplay {
        encoded_bytes: bytes.len(),
        codec_encode_s,
        codec_decode_s,
        crc_s,
        frame_encode_s,
        frame_decode_s,
    }
}

/// The kernel's `cpu_set_t`: one bit per CPU.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// While it lives, the calling thread runs on one CPU only, the last one it
/// was allowed, and so does every thread spawned under it; dropping it gives
/// the calling thread its CPUs back. `prmi_serve_uds` runs under it: a call
/// there is a chain of hand-offs between six threads, and on one CPU each
/// hand-off is a context switch, where on the two of the reference VM it
/// wakes an idle virtual CPU, which costs four times the call itself and
/// varies with the VM's host, not with the program.
pub struct OneCpu {
    before: CpuSet,
}

impl OneCpu {
    pub fn pin() -> OneCpu {
        let mut before: CpuSet = [0; 16];
        // SAFETY: the pointer is to `size_of::<CpuSet>()` writable bytes,
        // the size passed; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), before.as_mut_ptr()) };
        assert_eq!(got, 0, "sched_getaffinity: {}", std::io::Error::last_os_error());
        let word = before.iter().rposition(|&w| w != 0).expect("a thread may run somewhere");
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - before[word].leading_zeros());
        set_affinity(&one).expect("sched_setaffinity to a CPU of the current set");
        OneCpu { before }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Nothing to do about a refusal here; the next `pin` would report it.
        let _ = set_affinity(&self.before);
    }
}

fn set_affinity(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: the pointer is to `size_of::<CpuSet>()` readable bytes, the
    // size passed; pid 0 is the calling thread.
    match unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_and_replays_return_positive_finite_numbers() {
        let tiny = Duration::from_millis(5);
        for v in [memcpy_gb_per_s(1 << 16, tiny), uds_raw_gb_per_s(tiny), uds_raw_rtt_us(tiny)] {
            assert!(v.is_finite() && v > 0.0);
        }
        let replay = wire_replay(&vec![1.5; 64], tiny);
        assert!(replay.encoded_bytes >= 64 * 8);
        assert!(replay.codec_encode_s > 0.0 && replay.frame_decode_s > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    fn allowed_cpus() -> u32 {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `OneCpu::pin`.
        assert_eq!(unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) }, 0);
        set.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn one_cpu_pins_spawned_threads_and_restores_on_drop() {
        // Affinity is per thread, so a thread of its own keeps this test
        // from touching the others'.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            let pin = OneCpu::pin();
            assert_eq!(allowed_cpus(), 1);
            assert_eq!(std::thread::spawn(allowed_cpus).join().expect("child"), 1);
            drop(pin);
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .expect("pinned thread");
    }
}
