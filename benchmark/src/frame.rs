//! The documented wire framing — `u32-LE length | body`, length
//! counting the kind byte plus payload, capped at `MAX_FRAME` — over
//! the public codec (`Request::encode_into`, `Response::decode`). The
//! library's own `Conn` is private, and the benchmark must not depend
//! on it anyway: what it times is the protocol, not the library's
//! client.

use std::io::{self, Read};

use ccn_engine::net::{Request, MAX_FRAME};

/// Encodes `request` as one frame into `buf` (cleared first).
pub fn encode_frame(buf: &mut Vec<u8>, request: &Request) -> Result<(), String> {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
    request.encode_into(buf).map_err(|e| e.to_string())?;
    let len = u32::try_from(buf.len() - 4)
        .ok()
        .filter(|&len| len > 0 && len <= MAX_FRAME)
        .ok_or_else(|| format!("frame body of {} bytes outside 1..={MAX_FRAME}", buf.len() - 4))?;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Reassembles frames from a byte stream: one [`FrameReader::fill`]
/// per `read`, then [`FrameReader::next_frame`] until it runs dry, so a
/// read that delivers several pipelined replies costs one syscall and a
/// reply split across reads is held until it is whole.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// One `read` into the free tail. `Ok(0)` is end of stream.
    pub fn fill(&mut self, source: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < 4096 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < 4096 {
                self.buf.resize((self.buf.len() * 2).max(64 * 1024), 0);
            }
        }
        let n = source.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The body (kind byte + payload) of the next complete frame, or
    /// `None` when the buffered bytes end inside a frame.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, String> {
        let have = self.end - self.start;
        if have < 4 {
            return Ok(None);
        }
        let h = self.start;
        let len =
            u32::from_le_bytes([self.buf[h], self.buf[h + 1], self.buf[h + 2], self.buf[h + 3]]);
        if len == 0 || len > MAX_FRAME {
            return Err(format!("frame length {len} outside 1..={MAX_FRAME}"));
        }
        let total = 4 + len as usize;
        if have < total {
            // Room for the rest: `fill` compacts, but a frame larger
            // than the buffer needs the buffer grown.
            if self.buf.len() < total {
                self.buf.resize(total.next_power_of_two(), 0);
            }
            return Ok(None);
        }
        self.start += total;
        Ok(Some(&self.buf[h + 4..h + total]))
    }

    /// Whether bytes of an unfinished frame are buffered.
    pub fn mid_frame(&self) -> bool {
        self.end > self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_engine::net::Response;

    /// Yields its bytes in the given chunk sizes, then end of stream.
    struct Chunked {
        data: Vec<u8>,
        at: usize,
        chunks: Vec<usize>,
        turn: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = self.chunks[self.turn % self.chunks.len()];
            self.turn += 1;
            let n = want.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn reply(tag: u32) -> Response {
        Response::BatchServed { tag, local: u64::from(tag), peer: 1, origin: 2, shed: 0 }
    }

    fn stream_of(tags: std::ops::Range<u32>) -> Vec<u8> {
        let mut data = Vec::new();
        for tag in tags {
            let body = reply(tag).encode().unwrap();
            data.extend_from_slice(&(body.len() as u32).to_le_bytes());
            data.extend_from_slice(&body);
        }
        data
    }

    fn drain(reader: &mut FrameReader, source: &mut Chunked) -> Vec<Response> {
        let mut out = Vec::new();
        loop {
            while let Some(body) = reader.next_frame().unwrap() {
                out.push(Response::decode(body).unwrap());
            }
            if reader.fill(source).unwrap() == 0 {
                return out;
            }
        }
    }

    #[test]
    fn partial_reads_are_held_until_the_frame_is_whole() {
        let mut source = Chunked { data: stream_of(0..5), at: 0, chunks: vec![1, 2, 3], turn: 0 };
        let mut reader = FrameReader::default();
        let got = drain(&mut reader, &mut source);
        assert_eq!(got, (0..5).map(reply).collect::<Vec<_>>());
        assert!(!reader.mid_frame());
    }

    #[test]
    fn one_read_can_deliver_several_replies() {
        let data = stream_of(0..8);
        let len = data.len();
        let mut source = Chunked { data, at: 0, chunks: vec![len], turn: 0 };
        let mut reader = FrameReader::default();
        assert_eq!(reader.fill(&mut source).unwrap(), len);
        let mut tags = Vec::new();
        while let Some(body) = reader.next_frame().unwrap() {
            let Response::BatchServed { tag, .. } = Response::decode(body).unwrap() else {
                panic!("not a BatchServed");
            };
            tags.push(tag);
        }
        assert_eq!(tags, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_truncated_tail_is_reported_as_mid_frame() {
        let mut data = stream_of(0..2);
        data.truncate(data.len() - 3);
        let mut source = Chunked { data, at: 0, chunks: vec![7], turn: 0 };
        let mut reader = FrameReader::default();
        assert_eq!(drain(&mut reader, &mut source).len(), 1);
        assert!(reader.mid_frame());
    }

    #[test]
    fn a_corrupt_length_is_an_error_not_an_allocation() {
        let mut source =
            Chunked { data: u32::MAX.to_le_bytes().to_vec(), at: 0, chunks: vec![4], turn: 0 };
        let mut reader = FrameReader::default();
        reader.fill(&mut source).unwrap();
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn encode_frame_round_trips_through_the_public_decoder() {
        let request = Request::BatchLookup { tag: 7, contents: vec![1, 2, 3] };
        let mut buf = Vec::new();
        encode_frame(&mut buf, &request).unwrap();
        assert_eq!(u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize, buf.len() - 4);
        assert_eq!(Request::decode(&buf[4..]).unwrap(), request);
    }
}
