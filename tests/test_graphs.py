"""Graph core: formats, generators, clique listing, vertex sets."""

import pytest
from hypothesis import example, given, settings, strategies as st

from cfl.graphs import (MAX_EDGELIST_N, DuplicateEdgeError, EdgeSyntaxError,
                        Graph, Graph6Error, GraphFormatError, HeaderError,
                        LoopError, VertexRangeError, VertexSet,
                        _decode_edgelist, _first_clique,
                        complete_graph, complete_multipartite, cycle_graph,
                        empty_graph, format_edgelist, format_graph6,
                        has_clique, iter_clique_masks, kneser_graph, mask_of,
                        parse_edgelist, parse_graph, parse_graph6,
                        petersen_graph, random_gnp)

from conftest import independent_graph6_decode, naive_cliques, seeded_graphs
from cfl import rng as rng_module
from cfl.rng import _GOLDEN, _MASK, SplitMix64, _mixed, mix64
from support import (bulk_random, bulk_u64, reference_format_graph6,
                     reference_parse_edgelist, reference_parse_graph6,
                     reference_shuffle)


# -- edge list format ---------------------------------------------------------

def test_parse_edgelist_path():
    g = parse_edgelist("3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.edge_count == 2
    assert g.adj[0] >> 1 & 1 and g.adj[1] >> 2 & 1 and not g.adj[0] >> 2 & 1


def test_parse_edgelist_single_vertex():
    g = parse_edgelist("1 0\n")
    assert g.n == 1 and g.edge_count == 0


def test_parse_errors_name_lines():
    with pytest.raises(HeaderError) as e:
        parse_edgelist("3\n")
    assert e.value.line == 1
    with pytest.raises(HeaderError):
        parse_edgelist("3 2\n0 1\n")          # edge count mismatch
    with pytest.raises(VertexRangeError) as e:
        parse_edgelist("3 1\n0 3\n")
    assert e.value.line == 2
    with pytest.raises(LoopError):
        parse_edgelist("3 1\n1 1\n")
    with pytest.raises(DuplicateEdgeError) as e:
        parse_edgelist("3 2\n0 1\n0 1\n")
    assert e.value.line == 3
    with pytest.raises(EdgeSyntaxError):
        parse_edgelist("3 1\n1 0\n")           # must be u < v
    with pytest.raises(EdgeSyntaxError):
        parse_edgelist("3 1\na b\n")


@pytest.mark.parametrize("payload, error, line", [
    ("\u00b2 0\n", HeaderError, 1),           # superscript two: isdigit, not int
    ("3 \u0661\n0 1\n", HeaderError, 1),     # Arabic-Indic one: int reads 1
    ("3 1\n0 \u00b2\n", EdgeSyntaxError, 2),
    ("3 1\n\uff10 1\n", EdgeSyntaxError, 2),  # fullwidth zero
])
def test_edge_list_fields_are_ascii_digits(payload, error, line):
    with pytest.raises(error) as e:
        parse_edgelist(payload)
    assert e.value.line == line


def test_an_edge_list_n_past_the_limit_is_refused_before_its_edges():
    with pytest.raises(HeaderError, match="exceeds the limit") as e:
        parse_edgelist(f"{MAX_EDGELIST_N + 1} 1\n0 1\n")
    assert e.value.line == 1
    assert parse_edgelist(f"{MAX_EDGELIST_N} 0\n").n == MAX_EDGELIST_N


def test_edgelist_roundtrip_is_bit_exact():
    for g in seeded_graphs(10, (1, 16), seed=3):
        text = format_edgelist(g)
        assert parse_edgelist(text) == g
        assert format_edgelist(parse_edgelist(text)) == text


def _edgelist_corruptions(text, rng):
    """Payloads near the edge list ``text``: a line repeated, dropped,
    reversed or turned into a loop, an endpoint pushed out of range, a
    character replaced or inserted, the header count changed, a cut."""
    lines = text.split("\n")[:-1]
    n = int(lines[0].split(" ")[0])
    out = []
    for _ in range(3):
        i = 1 + rng.randrange(len(lines) - 1) if len(lines) > 1 else 0
        u, _, v = lines[i].partition(" ")
        edited = [f"{v} {u}", f"{u} {u}", f"{u} {n + rng.randrange(3)}",
                  lines[i] + " ", "x" + lines[i][1:]]
        for line in edited:
            out.append("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        # line i twice and the last line dropped, so the count still holds
        out.append("\n".join(lines[:i + 1] + lines[i:-1]) + "\n")
        out.append("\n".join(lines[:i] + lines[i + 1:]) + "\n")
        j = rng.randrange(len(text))
        c = rng.choice("0123456789 \nx-")
        out += [text[:j] + c + text[j + 1:], text[:j] + c + text[j:], text[:j]]
    head_n, head_m = lines[0].split(" ")
    out.append(text.replace(lines[0], f"{head_n} {int(head_m) + 1}", 1))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2**32 - 1))
@example(0, 1)
@example(1, 2)
@example(2, 3)
def test_parse_edgelist_matches_the_reference(n, seed):
    """The parser that builds bitsets gives the graph, or the error class,
    message and line, of the one that hands an edge list to Graph."""
    rng = SplitMix64(seed)
    g = random_gnp(n, rng.random(), rng.next_u64())
    text = format_edgelist(g)
    assert parse_edgelist(text) == g
    for payload in [text, text.rstrip("\n"), *_edgelist_corruptions(text, rng)]:
        assert (_decode_outcome(parse_edgelist, payload)
                == _decode_outcome(reference_parse_edgelist, payload)), payload


def _format_corruptions(text, rng):
    """Payloads one edit away from the edge list ``text``: a field with a
    leading zero, '+', '_' or a non-ASCII digit, a tab, a double space or
    CR LF in a line (the header included), no final LF, a loop, u > v,
    v >= n, a repeated edge, a line too many or too few, and a header n
    past MAX_EDGELIST_N."""
    lines = text.split("\n")[:-1]
    n, m = map(int, lines[0].split(" "))

    def at(k, *new):
        return "\n".join(lines[:k] + list(new) + lines[k + 1:]) + "\n"

    i = rng.randrange(len(lines))
    u, _, v = lines[i].partition(" ")
    out = [at(i, f"0{u} {v}"), at(i, f"{u} 00{v}"), at(i, f"+{u} {v}"),
           at(i, f"{u} {v[0]}_{v}"), at(i, f"\u0661{u} {v}"),
           at(i, f"{u} {v}\uff10"), at(i, f"{u}\t{v}"), at(i, f"{u}  {v}"),
           at(i, f"{u} {v}\r"), text.replace("\n", "\r\n"), text[:-1],
           text + lines[-1] + "\n", at(len(lines) - 1),
           at(0, f"{MAX_EDGELIST_N + 1 + rng.randrange(3)} {m}")]
    if m:
        j = 1 + rng.randrange(m)
        a, b = map(int, lines[j].split(" "))
        out += [at(j, f"{a} {a}"), at(j, f"{b} {a}"),
                at(j, f"{a} {n + rng.randrange(3)}"),
                at(j, lines[j], lines[j]).replace(f"{n} {m}\n", f"{n} {m + 1}\n", 1),
                at(len(lines) - 1, lines[j])]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 70), st.floats(0, 1), st.integers(0, 2**32 - 1))
@example(70, 1.0, 5)         # a body of several decoding slices
@example(0, 0.5, 1)
@example(2, 1.0, 2)
def test_bulk_decoding_matches_the_line_reader(n, p, seed):
    """A well-formed edge list is decoded in bulk, and every payload one edit
    away gives the graph, or the error class, message and line, of the
    line-by-line reader."""
    rng = SplitMix64(seed)
    g = random_gnp(n, p, rng.next_u64())
    text = format_edgelist(g)
    assert _decode_edgelist(text) == g
    for payload in _format_corruptions(text, rng):
        assert (_decode_outcome(parse_edgelist, payload)
                == _decode_outcome(reference_parse_edgelist, payload)), payload


def test_graph_constructor_checks_code_built_edges():
    with pytest.raises(ValueError, match="loop at vertex 1"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)
    doubled = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert doubled.edge_count == 1 and doubled == Graph(3, [(0, 1)])


# -- graph6 -------------------------------------------------------------------

def test_graph6_c5_against_independent_decoder():
    line = format_graph6(cycle_graph(5))
    n, edges = independent_graph6_decode(line)
    assert n == 5
    assert edges == sorted(cycle_graph(5).edges())
    back = parse_graph6(line)
    assert all(back.degree(v) == 2 for v in range(5))


def test_graph6_header_accepted():
    line = ">>graph6<<" + format_graph6(petersen_graph())
    assert parse_graph6(line) == petersen_graph()


def test_graph6_bad_payloads():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D")   # truncated bit field for n=5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 18), st.integers(0, 2**32 - 1))
@example(63, 1)     # the first n that takes the "~" header
@example(100, 2)
def test_graph6_roundtrip(n, seed):
    g = random_gnp(n, 0.4, seed)
    assert parse_graph6(format_graph6(g)) == g
    n2, edges = independent_graph6_decode(format_graph6(g))
    assert n2 == n and edges == sorted(g.edges())


def _decode_outcome(parse, payload):
    """What ``parse`` makes of ``payload``: the graph, or the error's class,
    message and position."""
    try:
        return parse(payload)
    except GraphFormatError as exc:
        return type(exc), str(exc), exc.offset, exc.line


def _corruptions(line, rng):
    """Payloads near ``line``: a byte replaced (often outside the alphabet),
    one dropped, one inserted, a cut, and the header byte changed."""
    alphabet = [chr(c) for c in range(0x20, 0x80)]
    out = []
    for _ in range(4):
        i = rng.randrange(len(line) + 1)
        c = alphabet[rng.randrange(len(alphabet))]
        out += [line[:i] + c + line[i + 1:], line[:i] + line[i + 1:],
                line[:i] + c + line[i:], line[:i]]
    out.append(alphabet[rng.randrange(len(alphabet))] + line[1:])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 70), st.integers(0, 2**32 - 1))
@example(0, 1)
@example(1, 2)
@example(62, 3)     # the last n with a one-byte header
@example(63, 4)     # the first n that takes the "~" header
def test_graph6_codec_matches_the_reference(n, seed):
    rng = SplitMix64(seed)
    g = random_gnp(n, rng.random(), rng.next_u64())
    line = format_graph6(g)
    assert line == reference_format_graph6(g)
    payloads = [line, line + "\n", ">>graph6<<" + line, line + ">>graph6<<",
                ">>graph6<<" + line + ">>graph6<<", *_corruptions(line, rng)]
    for payload in payloads:
        assert (_decode_outcome(parse_graph6, payload)
                == _decode_outcome(reference_parse_graph6, payload)), payload
    assert parse_graph6(">>graph6<<" + line) == g


@pytest.mark.parametrize("payload", [
    "", " \n", ">>graph6<<", "~", "~?", "~??", "~~??", "~~???", "~~??????",
    "~~?????@", "~??~", "~?A?", "~?@~" + "?" * 5, "?", "@", "A", "A_", "A__",
    "D\x7f", "D" + "?" * 3, "\x7f", "~~~~~~~~", "}" + "?" * 2000,
])
def test_graph6_fixed_payloads_match_the_reference(payload):
    assert (_decode_outcome(parse_graph6, payload)
            == _decode_outcome(reference_parse_graph6, payload))


def test_parse_graph_sniffs_both_formats():
    g = petersen_graph()
    assert parse_graph(format_edgelist(g)) == g
    assert parse_graph(format_graph6(g)) == g
    assert parse_graph(format_edgelist(g).encode()) == g


# -- generators ---------------------------------------------------------------

def test_complete_multipartite_examples():
    assert complete_multipartite([1, 1, 1]) == complete_graph(3)
    k333 = complete_multipartite([3, 3, 3])
    assert k333.edge_count == 27
    k23 = complete_multipartite([2, 3])
    assert k23.edge_count == 6 and k23.min_degree() == 2
    with pytest.raises(ValueError):
        complete_multipartite([])


def test_multipartite_degrees():
    g = complete_multipartite([2, 3, 4])
    # degree of a vertex in part of size s is n - s
    assert g.degree(0) == 9 - 2 and g.degree(2) == 9 - 3 and g.degree(8) == 9 - 4


def test_random_gnp_extremes_and_determinism():
    assert random_gnp(10, 0.0, 5) == empty_graph(10)
    assert random_gnp(10, 1.0, 5) == complete_graph(10)
    assert random_gnp(40, 0.37, 123) == random_gnp(40, 0.37, 123)
    assert random_gnp(40, 0.37, 123) != random_gnp(40, 0.37, 124)
    with pytest.raises(ValueError):
        random_gnp(5, 1.5, 0)


@pytest.mark.parametrize("n, p, seed", [(2, 0.5, 3), (17, 0.3, 0),
                                        (64, 0.5, 2**64 - 1), (120, 0.05, 77),
                                        (200, 0.5, 1), (200, 0.93, 12345)])
def test_random_gnp_matches_the_vectorised_stream(n, p, seed):
    """Pair k in lexicographic order is an edge iff draw k of
    bulk_random(seed, C(n, 2)) is below p."""
    draws = bulk_random(seed, n * (n - 1) // 2)
    g = random_gnp(n, p, seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert [bool(g.adj[u] >> v & 1) for u, v in pairs] == [bool(d < p) for d in draws]


def randrange_fisher_yates(rng, items):
    """Fisher-Yates with one randrange call per swap: the reference for the
    shuffle's inline draws."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def test_shuffle_draws_what_randrange_fisher_yates_draws():
    seeds = list(range(150)) + [2**64 - 1 - s for s in range(50)]
    for seed in seeds:
        for length in range(31):
            got, want = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            got.shuffle(xs)
            randrange_fisher_yates(want, ys)
            assert xs == ys
            assert got.next_u64() == want.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 2901, 2**63, 2**64 - 1])
def test_shuffle_reads_the_vectorised_stream(seed):
    """Swap i takes draw mod (i + 1), one draw each (a rejection needs a
    draw within i + 1 of 2^64), and the next draw is the one after."""
    for length in range(31):
        draws = [int(x) for x in bulk_u64(seed, length + 1)]
        want = list(range(length))
        for step, i in enumerate(range(length - 1, 0, -1)):
            j = draws[step] % (i + 1)
            want[i], want[j] = want[j], want[i]
        rng = SplitMix64(seed)
        got = list(range(length))
        rng.shuffle(got)
        assert got == want
        assert rng.next_u64() == draws[max(length - 1, 0)]


SHUFFLE_SEEDS = [0, 1, 2, 3301, 2**63, 2**64 - 1] + [
    int(x) for x in bulk_u64(33, 20)]


def test_shuffle_keeps_the_stream_of_the_one_draw_at_a_time_loop():
    """Equal permutations and equal final states, lengths 0..300."""
    for seed in SHUFFLE_SEEDS:
        for length in range(301):
            got, want = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            got.shuffle(xs)
            reference_shuffle(want, ys)
            assert xs == ys, (seed, length)
            assert got._state == want._state, (seed, length)


def test_shuffle_keeps_the_stream_across_chunks(monkeypatch):
    """With 3-lane chunks a shuffle of up to 40 items mixes up to 14 chunks;
    a 9,000-item shuffle crosses the default chunk twice."""
    for seed in SHUFFLE_SEEDS[:8]:
        got, want = SplitMix64(seed), SplitMix64(seed)
        xs, ys = list(range(9000)), list(range(9000))
        got.shuffle(xs)
        reference_shuffle(want, ys)
        assert xs == ys and got._state == want._state
    monkeypatch.setattr(rng_module, "_CHUNK", 3)
    for seed in SHUFFLE_SEEDS:
        for length in range(41):
            got, want = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            got.shuffle(xs)
            reference_shuffle(want, ys)
            assert xs == ys and got._state == want._state, (seed, length)


@pytest.mark.parametrize("count", [1, 2, 3, 10, 199, 4096])
def test_bulk_mix_reads_the_vectorised_stream(count):
    for seed in (0, 1, 2**64 - 1, 0xDEADBEEF):
        assert list(_mixed(seed, count)) == [int(x) for x in bulk_u64(seed, count)]


def unmix64(z):
    """The state whose ``mix64`` is z: each xorshift and multiply undone."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x
    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & _MASK, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _MASK, 30)


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_shuffle_rejects_as_randrange_does(n):
    """Draw ``step`` is 2^64 - 1, for every step in turn.  Every bound that
    is no power of 2 rejects it, and that swap takes the next draw."""
    top = unmix64(_MASK)
    assert mix64(top) == _MASK
    for step in range(n - 1):
        seed = (top - (step + 1) * _GOLDEN) & _MASK
        assert int(bulk_u64(seed, step + 1)[step]) == _MASK
        got, want = SplitMix64(seed), SplitMix64(seed)
        xs, ys = list(range(n)), list(range(n))
        got.shuffle(xs)
        reference_shuffle(want, ys)
        assert xs == ys and got._state == want._state
        bound = n - step
        draws = n - 1 + (bound & (bound - 1) != 0)
        assert got._state == (seed + draws * _GOLDEN) & _MASK


def test_random_gnp_edge_count_statistics():
    # mean C(1000,2)/2, sd = sqrt(npairs * 0.25); require within 4 sd
    g = random_gnp(1000, 0.5, 2024)
    npairs = 1000 * 999 // 2
    mean = npairs * 0.5
    sd = (npairs * 0.25) ** 0.5
    assert abs(g.edge_count - mean) < 4 * sd


def test_adjacency_symmetry_and_edge_count(small_graph_battery):
    for g in small_graph_battery:
        degsum = sum(g.degree(v) for v in range(g.n))
        assert degsum == 2 * g.edge_count
        for u in range(g.n):
            assert not g.adj[u] >> u & 1
            for v in range(g.n):
                assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)


# -- cliques ------------------------------------------------------------------

def test_enumerate_cliques_examples():
    assert list(iter_clique_masks(cycle_graph(5), 3)) == []
    assert len(list(iter_clique_masks(complete_graph(4), 3))) == 4
    assert len(list(iter_clique_masks(petersen_graph(), 2))) == 15


def test_enumerate_cliques_matches_naive_filter(small_graph_battery):
    for g in small_graph_battery[:20]:
        for k in (2, 3, 4):
            got = [VertexSet(g, c).vertices() for c in iter_clique_masks(g, k)]
            assert got == naive_cliques(g, k)


def test_enumerate_cliques_canonical_and_capped():
    g = complete_graph(6)
    full = [VertexSet(g, c).vertices() for c in iter_clique_masks(g, 3)]
    assert full == sorted(full) and len(full) == 20
    # the stream is lazy: stopping after 5 gives the 5 smallest
    first = [VertexSet(g, c).vertices()
             for c, _ in zip(iter_clique_masks(g, 3), range(5))]
    assert first == full[:5]


def test_first_clique_is_the_first_listed_clique(small_graph_battery):
    rng = SplitMix64(2903)
    for g in small_graph_battery:
        masks = [g.full_mask(), 0] + [rng.randrange(1 << g.n) for _ in range(6)]
        for k in range(1, 6):
            for m in masks:
                assert _first_clique(g.adj, k, m) == next(
                    iter_clique_masks(g, k, m), None)


@pytest.mark.parametrize("k", [-1, 0])
def test_the_empty_clique_always_exists(k):
    for g in (empty_graph(0), empty_graph(3), complete_graph(4)):
        assert has_clique(g, k) and has_clique(g, k, 0)


def test_has_clique_matches_naive_filter(small_graph_battery):
    rng = SplitMix64(3202)
    for g in small_graph_battery:
        masks = [g.full_mask(), 0] + [rng.randrange(1 << g.n) for _ in range(4)]
        for k in range(1, 6):
            cliques = [mask_of(c) for c in naive_cliques(g, k)]
            for m in masks:
                assert has_clique(g, k, m) == any(c & ~m == 0 for c in cliques)


def test_a_clique_search_stops_when_too_few_vertices_are_left():
    # it once walked every subset of a mask too small for the clique: K_22
    # at k = 23 took 0.8 s, and each added vertex doubled that
    k40 = complete_graph(40)
    assert has_clique(k40, 41) is False
    assert _first_clique(k40.adj, 40, k40.adj[0]) is None


def test_kneser_graph_is_triangle_free():
    g = kneser_graph(7, 3)
    assert g.n == 35
    assert list(iter_clique_masks(g, 3)) == []
    assert g.edge_count > 0


# -- vertex sets ----------------------------------------------------------------

def test_vertex_set_algebra():
    g = complete_graph(6)
    a = VertexSet.of(g, [0, 1, 2])
    assert 1 in a and 4 not in a
    assert len(a) == 3 and list(a) == [0, 1, 2]


def test_vertex_set_immutable_and_bounded():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        VertexSet.of(g, [5])
    s = VertexSet.of(g, [0])
    with pytest.raises(AttributeError):
        s.mask = 7
    with pytest.raises(AttributeError):
        g.n = 10
