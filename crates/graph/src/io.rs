//! Graph I/O: a plain-text edge-list format and a compact binary format.
//!
//! The text format is one `u v` pair per line, `#`-prefixed comment lines
//! allowed — the format SNAP datasets (live-journal, orkut, …) ship in.
//! The binary format is a little-endian `[magic, n, m, (u, v)*]` stream of
//! u64 words for fast reloading of generated instances.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::edgelist::EdgeList;

const BIN_MAGIC: u64 = 0x5452_4943_4e54_0001; // "TRICNT" v1

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Builds the CSR of a canonical edge list over `n` vertices read from
/// input, failing with `InvalidData` when `n` is too large to allocate.
fn csr_of(n: u64, el: &EdgeList) -> io::Result<Csr> {
    Csr::try_from_edges(n, el).map_err(|e| invalid(format!("vertex count {n}: {e}")))
}

/// Reads a SNAP-style text edge list from `r`. Lines starting with `#` or
/// `%` are skipped; tokens are whitespace-separated.
pub fn read_text_edges<R: Read>(r: R) -> io::Result<EdgeList> {
    let mut el = EdgeList::new();
    let reader = BufReader::new(r);
    let mut line = String::new();
    let mut reader = reader;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(invalid(format!("malformed edge line: {t:?}"))),
        };
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| invalid(format!("bad id {s:?}: {e}")))
        };
        el.push(parse(u)?, parse(v)?);
    }
    Ok(el)
}

/// Writes a canonical edge list as text.
pub fn write_text_edges<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for &(u, v) in el.pairs() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Writes a graph in the binary format.
pub fn write_binary<W: Write>(w: W, g: &Csr) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let el = g.to_edge_list();
    w.write_all(&BIN_MAGIC.to_le_bytes())?;
    w.write_all(&g.num_vertices().to_le_bytes())?;
    w.write_all(&(el.len() as u64).to_le_bytes())?;
    for &(u, v) in el.pairs() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a graph from the binary format.
pub fn read_binary<R: Read>(r: R) -> io::Result<Csr> {
    let mut r = BufReader::new(r);
    let mut word = [0u8; 8];
    let mut next = |r: &mut BufReader<R>| -> io::Result<u64> {
        r.read_exact(&mut word)?;
        Ok(u64::from_le_bytes(word))
    };
    let magic = next(&mut r)?;
    if magic != BIN_MAGIC {
        return Err(invalid("bad magic"));
    }
    let n = next(&mut r)?;
    let m = next(&mut r)?;
    let mut el = EdgeList::new();
    for _ in 0..m {
        let u = next(&mut r)?;
        let v = next(&mut r)?;
        if u >= n || v >= n {
            return Err(invalid("edge id out of range"));
        }
        el.push(u, v);
    }
    el.canonicalize();
    csr_of(n, &el)
}

/// Convenience: load a graph from a path, dispatching on extension
/// (`.bin` → binary, anything else → text edge list).
pub fn load_graph<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        read_binary(f)
    } else {
        let mut el = read_text_edges(f)?;
        el.canonicalize();
        let n = el
            .num_vertices()
            .ok_or_else(|| invalid(format!("vertex id {} is out of range", u64::MAX)))?;
        csr_of(n, &el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        el.canonicalize();
        Csr::from_edges(4, &el)
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_text_edges(&mut buf, &g.to_edge_list()).unwrap();
        let mut el = read_text_edges(&buf[..]).unwrap();
        el.canonicalize();
        assert_eq!(Csr::from_edges(4, &el), g);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let data = "# comment\n% other comment\n\n0 1\n1 2\n";
        let el = read_text_edges(data.as_bytes()).unwrap();
        assert_eq!(el.pairs(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text_edges("0\n".as_bytes()).is_err());
        assert!(read_text_edges("a b\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = [0u8; 24];
        assert!(read_binary(&buf[..]).is_err());
    }

    fn assert_invalid_data<T: std::fmt::Debug>(r: io::Result<T>) {
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// A binary file of just a header claiming `n` vertices and no edges.
    fn header_only(n: u64) -> Vec<u8> {
        [BIN_MAGIC, n, 0]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    #[test]
    fn text_rejects_the_largest_id() {
        let path = std::env::temp_dir().join(format!("io-max-id-{}.txt", std::process::id()));
        std::fs::write(&path, format!("1 {}\n", u64::MAX)).unwrap();
        let r = load_graph(&path);
        std::fs::remove_file(&path).unwrap();
        assert_invalid_data(r);
    }

    #[test]
    fn binary_rejects_a_vertex_count_past_capacity() {
        assert_invalid_data(read_binary(&header_only(1 << 62)[..]));
    }

    #[test]
    fn binary_rejects_a_vertex_count_past_memory() {
        assert_invalid_data(read_binary(&header_only(1 << 40)[..]));
    }
}
