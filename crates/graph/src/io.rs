//! Graph I/O: a plain-text edge-list format and a compact binary format.
//!
//! The text format is one `u v` pair per line, `#`-prefixed comment lines
//! allowed — the format SNAP datasets (live-journal, orkut, …) ship in.
//! The binary format is a little-endian stream of u64 words: a header
//! `[magic, n, m]` and then exactly `m` pairs `(u, v)`, each id `< n`.
//! [`write_binary`] writes a graph's `u < v` edges in id order, one pair
//! per edge; [`read_binary`] accepts any pairs — reversed, repeated or self
//! loops — and reads them as an undirected simple graph.
//!
//! [`read_binary`] builds no edge list and runs no global sort: it streams
//! the body twice into the CSR builder of [`Csr::from_edges`]. The first
//! pass counts degrees, the second places every pair into an adjacency
//! array of exact size, and each neighbourhood is then sorted and
//! deduplicated in place (a list of a written file arrives sorted, so
//! that is a linear check). The text path parses its pairs once and hands
//! them to the same builder.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::csr::{Csr, CsrBuilder};
use crate::edgelist::EdgeList;
use crate::VertexId;

const BIN_MAGIC: u64 = 0x5452_4943_4e54_0001; // "TRICNT" v1

/// Bytes of the binary header: magic, `n`, `m`.
const BIN_HEADER: u64 = 24;

/// Bytes of one binary pair.
const BIN_PAIR: usize = 16;

/// Bytes [`read_binary`] reads at a time.
const READ_CHUNK: usize = 1 << 16;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The error of a vertex count read from input whose per-vertex arrays
/// cannot be allocated.
fn too_large(n: u64) -> impl FnOnce(std::collections::TryReserveError) -> io::Error {
    move |e| invalid(format!("vertex count {n}: {e}"))
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

/// Writes a graph in the binary format: its `u < v` edges in id order,
/// streamed from the adjacency array.
pub fn write_binary<W: Write>(w: W, g: &Csr) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let m: u64 = g
        .vertices()
        .map(|u| {
            let ns = g.neighbors(u);
            (ns.len() - ns.partition_point(|&v| v <= u)) as u64
        })
        .sum();
    for word in [BIN_MAGIC, g.num_vertices(), m] {
        w.write_all(&word.to_le_bytes())?;
    }
    for (u, v) in g.edges() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a graph from the binary format.
///
/// The body is read twice (a degree pass and a placing pass, see the
/// module doc), seeking back to its start in between. Fails with
/// `InvalidData` on a bad magic, an id `≥ n`, a vertex count whose arrays
/// cannot be allocated, or bytes after the `m` pairs (no writer makes such
/// a file, so they mean a wrong header); with `UnexpectedEof` when the
/// input ends before its header or its `m` pairs.
pub fn read_binary<R: Read + Seek>(mut r: R) -> io::Result<Csr> {
    let mut header = [0u8; BIN_HEADER as usize];
    r.read_exact(&mut header)?;
    let [magic, n, m] = [0, 1, 2].map(|i| word(&header[8 * i..]));
    if magic != BIN_MAGIC {
        return Err(invalid("bad magic"));
    }
    let body = r.stream_position()?;
    let len = r.seek(SeekFrom::End(0))?.saturating_sub(body);
    match m.checked_mul(BIN_PAIR as u64) {
        Some(want) if want == len => {}
        Some(want) if want < len => {
            return Err(invalid(format!(
                "{} bytes after the header's {m} pairs",
                len - want
            )))
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("the header's {m} pairs need more than the {len} bytes left"),
            ))
        }
    }
    let mut buf = vec![0u8; READ_CHUNK];
    let mut degrees = CsrBuilder::new(n).map_err(too_large(n))?;
    read_pairs(&mut r, body, m, n, &mut buf, |u, v| degrees.count(u, v))?;
    let mut scatter = degrees.scatter().map_err(too_large(n))?;
    read_pairs(&mut r, body, m, n, &mut buf, |u, v| scatter.place(u, v))?;
    Ok(scatter.finish())
}

/// The little-endian u64 at the front of `bytes`.
#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// One pass over the `m` pairs starting at byte `body`, read `buf.len()`
/// bytes at a time: checks both ids against `n`, then hands the pair to
/// `f`.
fn read_pairs<R: Read + Seek>(
    r: &mut R,
    body: u64,
    m: u64,
    n: u64,
    buf: &mut [u8],
    mut f: impl FnMut(VertexId, VertexId),
) -> io::Result<()> {
    r.seek(SeekFrom::Start(body))?;
    let per_read = (buf.len() / BIN_PAIR) as u64;
    let mut left = m;
    while left > 0 {
        let k = left.min(per_read);
        let chunk = &mut buf[..k as usize * BIN_PAIR];
        r.read_exact(chunk)?;
        for pair in chunk.chunks_exact(BIN_PAIR) {
            let (u, v) = (word(pair), word(&pair[8..]));
            if u.max(v) >= n {
                return Err(invalid("edge id out of range"));
            }
            f(u, v);
        }
        left -= k;
    }
    Ok(())
}

/// Convenience: load a graph from a path, dispatching on extension
/// (`.bin` → [`read_binary`], anything else → a text edge list, see
/// [`read_text_edges`]). A text graph has `1 +` its largest id as its
/// vertex count, not counting ids seen only in self loops.
pub fn load_graph<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        read_binary(f)
    } else {
        text_graph(&read_text_edges(f)?)
    }
}

/// The graph of parsed text pairs, on `1 +` the largest id of a pair that
/// is not a self loop.
fn text_graph(el: &EdgeList) -> io::Result<Csr> {
    let n = el
        .pairs()
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| u.max(v))
        .max()
        .map_or(Some(0), |max| max.checked_add(1))
        .ok_or_else(|| invalid(format!("vertex id {} is out of range", u64::MAX)))?;
    Csr::try_from_edges(n, el).map_err(too_large(n))
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use crate::csr::tests::reference_csr;
    use crate::intersect::tests::splitmix;

    fn sample() -> Csr {
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        el.canonicalize();
        Csr::from_edges(4, &el)
    }

    /// Vertices 0, 3, 7 and 8 are isolated; 8 is the last.
    fn sample_with_isolated_vertices() -> Csr {
        let el = EdgeList::from_pairs(vec![(1, 2), (2, 4), (1, 4), (4, 5), (5, 6), (2, 6)]);
        Csr::from_edges(9, &el)
    }

    /// The words of a binary file with header `n`, `m` and these pairs.
    fn binary_file(n: u64, m: u64, pairs: &[(u64, u64)]) -> Vec<u8> {
        [BIN_MAGIC, n, m]
            .into_iter()
            .chain(pairs.iter().flat_map(|&(u, v)| [u, v]))
            .flat_map(u64::to_le_bytes)
            .collect()
    }

    fn binary_of(g: &Csr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(&mut buf, g).unwrap();
        buf
    }

    /// The graph of raw pairs as loading read it before the two-pass
    /// builder: canonicalize the whole list, then build.
    fn oracle(n: u64, pairs: &[(u64, u64)]) -> Csr {
        let mut el = EdgeList::from_pairs(pairs.to_vec());
        el.canonicalize();
        reference_csr(n, &el)
    }

    /// A reader that counts the bytes read through it.
    struct Counted {
        inner: Cursor<Vec<u8>>,
        read: usize,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let k = self.inner.read(buf)?;
            self.read += k;
            Ok(k)
        }
    }

    impl Seek for Counted {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_text_edges(&mut buf, &g.to_edge_list()).unwrap();
        let el = read_text_edges(&buf[..]).unwrap();
        assert_eq!(text_graph(&el).unwrap(), g);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let data = "# comment\n% other comment\n\n0 1\n1 2\n";
        let el = read_text_edges(data.as_bytes()).unwrap();
        assert_eq!(el.pairs(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn text_vertex_count_skips_ids_seen_only_in_self_loops() {
        let el = read_text_edges("0 1\n7 7\n1 0\n".as_bytes()).unwrap();
        let g = text_graph(&el).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (2, 1));
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text_edges("0\n".as_bytes()).is_err());
        assert!(read_text_edges("a b\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        for g in [sample(), sample_with_isolated_vertices()] {
            let g2 = read_binary(Cursor::new(binary_of(&g))).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = [0u8; 24];
        assert!(read_binary(Cursor::new(&buf[..])).is_err());
    }

    fn assert_invalid_data<T: std::fmt::Debug>(r: io::Result<T>) {
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// A binary file of just a header claiming `n` vertices and no edges.
    fn header_only(n: u64) -> Vec<u8> {
        binary_file(n, 0, &[])
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
        assert_invalid_data(read_binary(Cursor::new(header_only(1 << 62))));
    }

    #[test]
    fn binary_rejects_a_vertex_count_past_memory() {
        assert_invalid_data(read_binary(Cursor::new(header_only(1 << 40))));
    }

    #[test]
    fn binary_rejects_a_vertex_count_past_memory_with_a_body() {
        let file = binary_file(1 << 40, 2, &[(0, 1), ((1 << 40) - 1, 5)]);
        assert_invalid_data(read_binary(Cursor::new(file)));
    }

    /// The writer before it streamed from the adjacency array: it copied
    /// the `u < v` edges into an edge list first.
    fn write_binary_via_edge_list(g: &Csr) -> Vec<u8> {
        let el = g.to_edge_list();
        binary_file(g.num_vertices(), el.len() as u64, el.pairs())
    }

    #[test]
    fn streamed_writer_matches_the_edge_list_writer() {
        let oriented = Csr::from_neighbor_lists(vec![vec![1, 2], vec![2], vec![], vec![0]]);
        for g in [sample(), sample_with_isolated_vertices(), oriented] {
            assert_eq!(binary_of(&g), write_binary_via_edge_list(&g));
        }
    }

    #[test]
    fn binary_truncated_at_any_byte_is_an_error() {
        let file = binary_of(&sample_with_isolated_vertices());
        for cut in 0..file.len() {
            assert!(
                read_binary(Cursor::new(&file[..cut])).is_err(),
                "a file cut at byte {cut} of {} loaded",
                file.len()
            );
        }
    }

    #[test]
    fn binary_rejects_a_pair_count_past_the_body_before_reading_it() {
        let pairs = [(0, 1), (1, 2), (2, 0)];
        // `16·m` overflows u64 for the last two
        for m in [4, 1 << 40, u64::MAX / 16 + 1, u64::MAX] {
            let mut r = Counted {
                inner: Cursor::new(binary_file(3, m, &pairs)),
                read: 0,
            };
            let e = read_binary(&mut r).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "m = {m}");
            assert_eq!(r.read, BIN_HEADER as usize, "m = {m} read the body");
        }
    }

    #[test]
    fn binary_rejects_bytes_after_its_pairs() {
        let file = binary_file(3, 2, &[(0, 1), (1, 2)]);
        for extra in [1, 8, 16] {
            let mut longer = file.clone();
            longer.resize(file.len() + extra, 0);
            assert_invalid_data(read_binary(Cursor::new(longer)));
        }
    }

    #[test]
    fn binary_rejects_an_id_past_the_vertex_count() {
        for pair in [(3, 0), (0, 3), (3, 3), (1, u64::MAX), (u64::MAX, 1)] {
            let file = binary_file(3, 2, &[(0, 1), pair]);
            assert_invalid_data(read_binary(Cursor::new(file)));
        }
    }

    #[test]
    fn raw_pairs_load_as_the_canonicalized_list() {
        let mut rng = 0x10ad_u64;
        for case in 0..300 {
            let span = 1 + splitmix(&mut rng) % 40;
            let mut pairs: Vec<(u64, u64)> = (0..splitmix(&mut rng) % 120)
                .map(|_| (splitmix(&mut rng) % span, splitmix(&mut rng) % span))
                .collect();
            // repeat, reverse and self-loop some of them
            for i in 0..pairs.len() / 4 {
                let (u, v) = pairs[i];
                let extra = match splitmix(&mut rng) % 3 {
                    0 => (u, v),
                    1 => (v, u),
                    _ => (u, u),
                };
                pairs.push(extra);
            }
            let n = span + splitmix(&mut rng) % 5;
            let want = oracle(n, &pairs);
            let file = binary_file(n, pairs.len() as u64, &pairs);
            assert_eq!(read_binary(Cursor::new(file)).unwrap(), want, "case {case}");
            want.validate_symmetric().unwrap();

            let mut text = Vec::new();
            write_text_edges(&mut text, &EdgeList::from_pairs(pairs.clone())).unwrap();
            let el = read_text_edges(&text[..]).unwrap();
            let mut canonical = el.clone();
            canonical.canonicalize();
            let n_text = canonical.num_vertices().unwrap();
            assert_eq!(
                text_graph(&el).unwrap(),
                oracle(n_text, &pairs),
                "case {case}"
            );
        }
    }
}
