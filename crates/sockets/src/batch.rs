//! Batched kernel datapath: `recvmmsg`/`sendmmsg`, kernel arrival stamps,
//! and the socket's overflow count.
//!
//! The receiver's drain and the evented sender's train blast
//! are the two hot paths where one measurement round moves dozens of
//! datagrams through a socket back-to-back. Linux batches those into one
//! syscall each way — `recvmmsg(2)` drains up to [`MAX_BATCH`] probe
//! datagrams per kernel crossing, `sendmmsg(2)` pushes a train slice out
//! in one call — through the same direct-FFI pattern as `mux::sys`
//! (the C library `std` already links; no new dependencies).
//!
//! The receive side can also run a *scalar* loop, one `recvmsg` per
//! datagram, when a caller forces it (the batching-correctness test pins
//! the two paths byte-identical). The semantics are identical: a receive
//! call returns at least one datagram or `WouldBlock`, a send call
//! accepts a prefix of the slice and reports how many messages the
//! kernel took. A receive never blocks after its first datagram, so a
//! blocking socket with a read timeout reads through the same call.
//!
//! **Arrival stamps.** A probe's arrival instant is half of its one-way
//! delay, so the receiver does not take it from its own clock after a
//! wake-up: [`prepare_probe_socket`] asks the kernel to stamp every
//! datagram as it lands (`SO_TIMESTAMPNS`) and to report its running
//! count of datagrams dropped for want of buffer space (`SO_RXQ_OVFL`),
//! and raises the receive buffer toward [`PROBE_RCVBUF`]. Both receive
//! paths parse the control messages per datagram: [`UdpRecvBatch::stamp`]
//! is the kernel's realtime stamp (mapped onto a pump's monotonic clock
//! by `clock::RealtimeMap`), [`UdpRecvBatch::take_drops`] the overflow
//! the datagrams read so far reveal.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::net::UdpSocket;

/// Most datagrams moved per batched syscall. One SLoPS stream is ~100
/// packets and a train ~50; 32 keeps per-call buffer memory small while
/// still cutting syscall counts by an order of magnitude under load.
pub const MAX_BATCH: usize = 32;

/// The receive buffer a probe socket asks for. A receiver that reads its
/// probe socket on a schedule instead of on every datagram needs room for
/// what lands between reads; the kernel clamps the request to
/// `net.core.rmem_max` (208 KiB by default, often raised to 4 MiB on
/// measurement hosts), and [`prepare_probe_socket`] reports what it got.
pub const PROBE_RCVBUF: usize = 4 << 20;

/// What [`prepare_probe_socket`] set up on a probe socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeSocket {
    /// The kernel stamps every datagram on arrival.
    pub stamps: bool,
    /// The effective receive buffer in bytes, as the kernel reads it back:
    /// about twice the request, since the kernel charges its per-datagram
    /// bookkeeping against the same budget. 0 when unknown.
    pub rcvbuf: usize,
}

/// Ready a probe socket for stamped reads: kernel arrival stamps, the
/// overflow count, and a receive buffer raised toward [`PROBE_RCVBUF`]
/// (never lowered). Best effort: whatever the kernel refuses is reported
/// as absent.
pub fn prepare_probe_socket(sock: &UdpSocket) -> ProbeSocket {
    sys::prepare_probe_socket(sock)
}

#[allow(unsafe_code)] // FFI onto recvmmsg/recvmsg/sendmmsg/setsockopt of the libc std links.
mod sys {
    use std::ffi::c_long;
    use std::io;
    use std::mem::size_of;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::ptr;

    use super::{ProbeSocket, MAX_BATCH, PROBE_RCVBUF};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    // glibc/musl x86-64 `struct msghdr` layout (repr(C) inserts the
    // 4-byte pad after `namelen` exactly where the C definition has it).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    impl MMsgHdr {
        fn empty() -> MMsgHdr {
            MMsgHdr {
                hdr: MsgHdr {
                    name: ptr::null_mut(),
                    namelen: 0,
                    iov: ptr::null_mut(),
                    iovlen: 0,
                    control: ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            }
        }
    }

    extern "C" {
        fn recvmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
        fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
    }

    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    /// Also the control-message type of the stamp (`SCM_TIMESTAMPNS`).
    const SO_TIMESTAMPNS: i32 = 35;
    /// Also the control-message type of the drop count.
    const SO_RXQ_OVFL: i32 = 40;
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_WAITFORONE: i32 = 0x10000;

    /// Room for one datagram's control messages: a `timespec` stamp and a
    /// `u32` drop count, each behind a `cmsghdr`, with alignment padding.
    const CMSG_BUF: usize = 64;

    /// A control-message buffer, aligned as `struct cmsghdr` expects.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct CmsgBuf([u8; CMSG_BUF]);

    fn set_int(fd: i32, name: i32, value: i32) -> bool {
        // SAFETY: `value` is a live i32 and the passed length is its exact
        // size; the kernel only reads it.
        unsafe { setsockopt(fd, SOL_SOCKET, name, &value, 4) == 0 }
    }

    fn get_int(fd: i32, name: i32) -> Option<i32> {
        let (mut value, mut len) = (0i32, 4u32);
        // SAFETY: both out-pointers are live locals of the sizes passed;
        // the kernel writes at most `len` bytes into `value`.
        let ok = unsafe { getsockopt(fd, SOL_SOCKET, name, &mut value, &mut len) == 0 };
        ok.then_some(value)
    }

    /// Ask for `bytes` of receive buffer; the effective size read back.
    pub fn set_rcvbuf(sock: &UdpSocket, bytes: usize) -> Option<usize> {
        let fd = sock.as_raw_fd();
        set_int(fd, SO_RCVBUF, i32::try_from(bytes).unwrap_or(i32::MAX));
        get_int(fd, SO_RCVBUF).and_then(|v| usize::try_from(v).ok())
    }

    pub fn prepare_probe_socket(sock: &UdpSocket) -> ProbeSocket {
        let fd = sock.as_raw_fd();
        let stamps = set_int(fd, SO_TIMESTAMPNS, 1);
        set_int(fd, SO_RXQ_OVFL, 1);
        // The read-back is already doubled: compare like with like.
        let current = get_int(fd, SO_RCVBUF).and_then(|v| usize::try_from(v).ok());
        let rcvbuf = match current {
            Some(have) if have >= 2 * PROBE_RCVBUF => Some(have),
            _ => set_rcvbuf(sock, PROBE_RCVBUF),
        };
        ProbeSocket {
            stamps,
            rcvbuf: rcvbuf.unwrap_or(0),
        }
    }

    /// `N` bytes of `b` at `at`, if there are that many.
    fn bytes_at<const N: usize>(b: &[u8], at: usize) -> Option<[u8; N]> {
        b.get(at..at.checked_add(N)?)?.try_into().ok()
    }

    /// The arrival stamp (realtime ns) and the socket's cumulative drop
    /// count among one datagram's control messages.
    fn parse_cmsgs(ctrl: &[u8]) -> (Option<u64>, Option<u32>) {
        const WORD: usize = size_of::<usize>();
        // `struct cmsghdr`: a size_t length, then level and type as ints;
        // the data starts (and each header is aligned) on a size_t.
        const HDR: usize = WORD + 8;
        let (mut stamp, mut drops) = (None, None);
        let mut off = 0;
        while let Some(len) = bytes_at::<WORD>(ctrl, off).map(usize::from_ne_bytes) {
            let (Some(level), Some(kind)) = (
                bytes_at::<4>(ctrl, off + WORD).map(i32::from_ne_bytes),
                bytes_at::<4>(ctrl, off + WORD + 4).map(i32::from_ne_bytes),
            ) else {
                break;
            };
            // A length short of its own header ends the walk here too.
            let Some(data) = ctrl.get(off + HDR..off.saturating_add(len)) else {
                break;
            };
            match (level, kind) {
                (SOL_SOCKET, SO_TIMESTAMPNS) => {
                    const LONG: usize = size_of::<c_long>();
                    let sec = bytes_at::<LONG>(data, 0).map(c_long::from_ne_bytes);
                    let nsec = bytes_at::<LONG>(data, LONG).map(c_long::from_ne_bytes);
                    stamp = sec.zip(nsec).and_then(|(s, n)| {
                        let (s, n) = (u64::try_from(s).ok()?, u64::try_from(n).ok()?);
                        s.checked_mul(1_000_000_000)?.checked_add(n)
                    });
                }
                (SOL_SOCKET, SO_RXQ_OVFL) => drops = bytes_at::<4>(data, 0).map(u32::from_ne_bytes),
                _ => {}
            }
            off += len.next_multiple_of(WORD);
        }
        (stamp, drops)
    }

    /// Receive up to `bufs.len()` datagrams: one `recvmmsg` call
    /// (`batched`) or a `recvmsg` loop. Fills `lens[i]` and `stamps[i]`
    /// for each returned datagram and returns how many, plus the latest
    /// drop count any of them carried. Never blocks after the first
    /// datagram; `WouldBlock` when there is none.
    pub fn recv(
        sock: &UdpSocket,
        batched: bool,
        bufs: &mut [Vec<u8>],
        lens: &mut [usize],
        stamps: &mut [Option<u64>],
    ) -> io::Result<(usize, Option<u32>)> {
        let n = bufs.len().min(MAX_BATCH);
        let mut iovs = [IoVec {
            base: ptr::null_mut(),
            len: 0,
        }; MAX_BATCH];
        let mut ctrl = [CmsgBuf([0; CMSG_BUF]); MAX_BATCH];
        let mut msgs = [MMsgHdr::empty(); MAX_BATCH];
        for i in 0..n {
            iovs[i] = IoVec {
                base: bufs[i].as_mut_ptr(),
                len: bufs[i].len(),
            };
            msgs[i].hdr.iov = &mut iovs[i];
            msgs[i].hdr.iovlen = 1;
            msgs[i].hdr.control = ctrl[i].0.as_mut_ptr();
            msgs[i].hdr.controllen = CMSG_BUF;
        }
        let fd = sock.as_raw_fd();
        let got = if batched {
            // SAFETY: every msg/iovec/control entry in `msgs[..n]` points
            // into live buffers (the caller's `bufs`, this frame's
            // `iovs`/`ctrl`) that outlive the call; the kernel writes at
            // most each entry's stated length and no timeout struct is
            // passed (null).
            let got = unsafe {
                recvmmsg(
                    fd,
                    msgs.as_mut_ptr(),
                    n as u32,
                    MSG_WAITFORONE,
                    ptr::null_mut(),
                )
            };
            if got < 0 {
                return Err(io::Error::last_os_error());
            }
            for i in 0..got as usize {
                lens[i] = msgs[i].len as usize;
            }
            got as usize
        } else {
            let mut got = 0;
            while got < n {
                let flags = if got == 0 { 0 } else { MSG_DONTWAIT };
                // SAFETY: as above, for the one header `msgs[got]`.
                let len = unsafe { recvmsg(fd, &mut msgs[got].hdr, flags) };
                if len >= 0 {
                    lens[got] = len as usize;
                    got += 1;
                    continue;
                }
                let e = io::Error::last_os_error();
                match e.kind() {
                    io::ErrorKind::Interrupted => continue,
                    _ if got > 0 => break,
                    _ => return Err(e),
                }
            }
            got
        };
        let mut drops = None;
        for i in 0..got {
            let len = msgs[i].hdr.controllen.min(CMSG_BUF);
            let (stamp, count) = parse_cmsgs(&ctrl[i].0[..len]);
            stamps[i] = stamp;
            drops = count.or(drops);
        }
        Ok((got, drops))
    }

    /// One `sendmmsg` call over a *connected* socket: sends a prefix of
    /// `msgs`, returning how many the kernel accepted. `WouldBlock` when
    /// it accepted none.
    pub fn send_batch(sock: &UdpSocket, msgs: &[Vec<u8>]) -> io::Result<usize> {
        let n = msgs.len().min(MAX_BATCH);
        let mut iovs = [IoVec {
            base: ptr::null_mut(),
            len: 0,
        }; MAX_BATCH];
        let mut hdrs = [MMsgHdr::empty(); MAX_BATCH];
        for i in 0..n {
            iovs[i] = IoVec {
                // sendmmsg never writes through the iovec; the mut cast is
                // an artifact of sharing `struct iovec` with the read path.
                base: msgs[i].as_ptr() as *mut u8,
                len: msgs[i].len(),
            };
            hdrs[i].hdr.iov = &mut iovs[i];
            hdrs[i].hdr.iovlen = 1;
        }
        // SAFETY: every header in `hdrs[..n]` points into the caller's
        // live `msgs` buffers, which outlive the call; sendmmsg only
        // reads through the iovecs and only writes the per-entry `len`
        // fields inside `hdrs`.
        let sent = unsafe { sendmmsg(sock.as_raw_fd(), hdrs.as_mut_ptr(), n as u32, 0) };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sent as usize)
    }
}

/// Reusable buffers for batched datagram receives.
///
/// One [`UdpRecvBatch::recv`] call is one kernel crossing: `recvmmsg`, or
/// a `recvmsg` loop when [`UdpRecvBatch::set_scalar`] forces it. Either
/// way it returns at least one datagram
/// or `WouldBlock`, and the received payloads are read back with
/// [`UdpRecvBatch::msg`], their kernel arrival stamps with
/// [`UdpRecvBatch::stamp`].
#[derive(Debug)]
pub struct UdpRecvBatch {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    stamps: Vec<Option<u64>>,
    scalar: bool,
    /// The socket's cumulative overflow count, as last carried by a
    /// datagram, and as last handed out by [`UdpRecvBatch::take_drops`]
    /// (the kernel's counter is a wrapping `u32`).
    drops_seen: u32,
    drops_taken: u32,
}

impl UdpRecvBatch {
    /// Buffers for up to `max_msgs` datagrams of up to `buf_len` bytes
    /// each (both clamped to sane minimums; `max_msgs` additionally to
    /// [`MAX_BATCH`]).
    pub fn new(max_msgs: usize, buf_len: usize) -> UdpRecvBatch {
        let max_msgs = max_msgs.clamp(1, MAX_BATCH);
        let buf_len = buf_len.max(64);
        UdpRecvBatch {
            bufs: vec![vec![0u8; buf_len]; max_msgs],
            lens: vec![0; max_msgs],
            stamps: vec![None; max_msgs],
            scalar: false,
            drops_seen: 0,
            drops_taken: 0,
        }
    }

    /// Force the scalar receive loop instead of `recvmmsg` (the
    /// batching-correctness test pins both paths identical).
    pub fn set_scalar(&mut self, scalar: bool) {
        self.scalar = scalar;
    }

    /// Receive a batch from `sock`: `Ok(n)` with `n >= 1` datagrams now
    /// readable via [`UdpRecvBatch::msg`], or `WouldBlock` when the
    /// socket is empty (a blocking socket waits for the first datagram,
    /// up to its read timeout, and for no other).
    pub fn recv(&mut self, sock: &UdpSocket) -> io::Result<usize> {
        let (got, drops) = sys::recv(
            sock,
            !self.scalar,
            &mut self.bufs,
            &mut self.lens,
            &mut self.stamps,
        )?;
        if let Some(drops) = drops {
            self.drops_seen = drops;
        }
        Ok(got)
    }

    /// The `i`-th datagram of the last [`UdpRecvBatch::recv`] batch.
    pub fn msg(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i]]
    }

    /// The kernel's arrival stamp of the `i`-th datagram of the last
    /// batch, in realtime nanoseconds since the Unix epoch (`None` when
    /// the socket does not stamp: see [`prepare_probe_socket`]).
    pub fn stamp(&self, i: usize) -> Option<u64> {
        self.stamps.get(i).copied().flatten()
    }

    /// Datagrams the kernel dropped on this socket for want of buffer
    /// space since the last call, as far as the datagrams read so far
    /// tell (a drop is reported by the next datagram that gets in).
    pub fn take_drops(&mut self) -> u64 {
        let new = self.drops_seen.wrapping_sub(self.drops_taken);
        self.drops_taken = self.drops_seen;
        u64::from(new)
    }
}

/// Ask the kernel for `bytes` of receive buffer on `sock`; the effective
/// size it reads back. Tests shrink a socket with it to force overflow.
#[cfg(test)]
pub(crate) fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> Option<usize> {
    sys::set_rcvbuf(sock, bytes)
}

/// Send a slice of datagrams over a *connected* non-blocking socket in
/// one `sendmmsg` call: returns how many messages the kernel accepted (a
/// prefix of `msgs`), or `WouldBlock` when it accepted none.
pub fn send_batch(sock: &UdpSocket, msgs: &[Vec<u8>]) -> io::Result<usize> {
    if msgs.is_empty() {
        return Ok(0);
    }
    sys::send_batch(sock, msgs)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        (a, b)
    }

    fn recv_roundtrip(scalar: bool) {
        let (tx, rx) = pair();
        rx.set_nonblocking(true).unwrap();
        let mut batch = UdpRecvBatch::new(8, 64);
        batch.set_scalar(scalar);
        assert_eq!(
            batch.recv(&rx).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "empty socket"
        );
        for i in 0..5u8 {
            tx.send(&[i, i, i]).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut seen = Vec::new();
        while seen.len() < 5 {
            match batch.recv(&rx) {
                Ok(n) => {
                    for i in 0..n {
                        seen.push(batch.msg(i).to_vec());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
        let want: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i, i, i]).collect();
        assert_eq!(seen, want, "order and payloads preserved");
    }

    #[test]
    fn scalar_recv_batch_preserves_order() {
        recv_roundtrip(true);
    }

    #[test]
    fn batched_recv_matches_scalar_semantics() {
        recv_roundtrip(false);
    }

    /// Three datagrams sent a millisecond apart and read in one call carry
    /// three kernel stamps a millisecond apart, on both receive paths.
    #[test]
    fn one_read_carries_each_datagrams_own_arrival_stamp() {
        for scalar in [false, true] {
            let (tx, rx) = pair();
            rx.set_nonblocking(true).unwrap();
            let setup = prepare_probe_socket(&rx);
            assert!(setup.stamps, "SO_TIMESTAMPNS refused");
            assert!(setup.rcvbuf > 0);
            let mut batch = UdpRecvBatch::new(8, 64);
            batch.set_scalar(scalar);
            for i in 0..3u8 {
                if i > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                tx.send(&[i]).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(batch.recv(&rx).unwrap(), 3, "scalar={scalar}");
            let stamps: Vec<u64> = (0..3).map(|i| batch.stamp(i).unwrap()).collect();
            for w in stamps.windows(2) {
                assert!(w[1] - w[0] >= 900_000, "scalar={scalar}: {stamps:?}");
            }
            assert_eq!(batch.take_drops(), 0);
        }
    }

    /// Datagrams the kernel drops for want of buffer space are counted,
    /// reported by the next datagram that gets in.
    #[test]
    fn buffer_overflow_is_counted() {
        for scalar in [false, true] {
            let (tx, rx) = pair();
            rx.set_nonblocking(true).unwrap();
            prepare_probe_socket(&rx);
            assert!(set_recv_buffer(&rx, 4096).is_some());
            let mut batch = UdpRecvBatch::new(MAX_BATCH, 64);
            batch.set_scalar(scalar);
            let drain = |batch: &mut UdpRecvBatch| {
                let mut got = 0;
                while let Ok(n) = batch.recv(&rx) {
                    got += n as u64;
                }
                got
            };
            for _ in 0..64 {
                tx.send(&[0; 64]).unwrap();
            }
            let fit = drain(&mut batch);
            assert!(fit < 64, "nothing overflowed");
            tx.send(&[1; 64]).unwrap();
            assert_eq!(drain(&mut batch), 1);
            assert_eq!(batch.take_drops(), 64 - fit, "scalar={scalar}");
            assert_eq!(batch.take_drops(), 0, "taken once");
        }
    }

    #[test]
    fn send_batch_delivers_all_payloads_in_order() {
        let (tx, rx) = pair();
        tx.set_nonblocking(true).unwrap();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 4]).collect();
        let mut off = 0;
        while off < msgs.len() {
            off += send_batch(&tx, &msgs[off..]).unwrap();
        }
        rx.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 64];
        for want in &msgs {
            let n = rx.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &want[..]);
        }
    }
}
