"""Gradient-boosted regression trees with Poisson and squared losses.

Trees are grown depth-first with exact greedy splits: every midpoint between
distinct feature values is scored by the second-order gain, with missing
values tried on both sides of each candidate split. The Poisson loss uses a
log link, so raw scores live in log space and forecasts exp(raw) are
strictly positive.

Split search follows the column block of XGBoost's exact greedy algorithm
(Chen & Guestrin 2016). Each column of the training matrix is stable-sorted
once into an int32 array of row indices, NaN last, with one more row
listing the rows in ascending order (presort_columns): once per training
matrix, reused by every boosting round of train() and by every tree of
train_forest(), which cuts it down to each tree's distinct bootstrap
rows. A tree grows on a working copy of that array. Every node owns one
contiguous range of positions in it, so each row of the range lists the
node's rows sorted by that feature; a split stably partitions the range in
place, which keeps both children sorted. No node of this numpy path sorts
anything.

Rank codes: with the presort, each cell also gets its dense rank in its
column as a uint16 (_rank_columns): rank 1 is the column's smallest
non-NaN value, equal values (-0.0 and 0.0 too) share a rank, and NaN is 0,
with a per-column table of the distinct values indexed by rank. The numpy
search then gathers a node's ranks, not its values: 2 bytes a cell instead
of 8. It needs a value only to form the winner's threshold, and takes that
from the table. A column of more than 65,534 distinct values does not fit,
so when any column has that many (trend_annual in the 4,000-product
benchmark panel has 68,911 in 93,182 training rows), the fit keeps the
float gather from x and allocates no ranks; the choice is made from the
input, once per presort. Python subtrees, the partition's split column and
the forecast pass (_apply_trees) read x either way.

The matrix is read column by column, as the column block stores it:
FeatureMatrix.X is feature-major (build_matrix writes each column
contiguously, and the train, valid and test parts are row slices of it), and
the grower and the forecast pass read cell (r, f) at f * stride + r of one
1-D view over that column buffer (_column_cells). So the gather of a node's
values for one feature reads within that feature's column, not across the
whole matrix, and x is not copied. An x whose columns are not contiguous (a
C-order array of several rows and columns, a slice that steps over rows)
is copied to F order once per fit_tree or _apply_trees call. Only the memory a
value is read from depends on the layout: trees, gains and leaf values do
not.

Exactness: the search scores the node's block for all candidate features at
once, but every sum it forms is a sequential sum in the order the one-column
scan uses (a block of ranks lists its rows in the order of the block of
values): left sums are np.cumsum along each sorted row (ties in row order),
missing-value sums run over each row's NaN tail alone, from its first value
on, and node totals run over the rows in ascending order.
Gradients and hessians travel as one complex pair g + i*h, assigned part by
part so a -0.0 keeps its sign; complex addition adds the two parts apart,
so one gather and one cumsum give both sequential sums. A split needs
H + lambda > 0 on both sides, and a node whose own H + lambda is not above
0 has no split; both search paths check this before they divide. The
numpy search forms gains for every boundary between distinct values but a
midpoint threshold for the winner only: a midpoint that rounds back onto
its left value (two adjacent floats) is no candidate, so that boundary is
dropped and the next maximum wins, as if it had never been scored. Ranks
give the same candidates and the same thresholds: adjacent ranks differ
exactly where adjacent values compare less, NaN's rank 0 is no boundary as
NaN is none, and the winner's two ranks decode to the two values the value
block holds there. Only a zero may decode to the other zero, and a zero
added to the other, nonzero value of a pair leaves that value's bits, so
the midpoint and its collapse test are the same.

Small subtrees: a node whose search block (features x rows) has at most
SCAN_ELEMENTS elements grows its whole subtree in Python lists; its
descendants have fewer rows. Its nodes make no numpy call but the
feature sampler's, which a forest's batch refill makes for many nodes at
once. One gather at the subtree's root takes the rows' values and pairs,
and one argsort of the block's row indices, each listed once, gives each
row's position in every presorted row. A node orders its rows by a feature
by sorting them on those positions, which is the presort's stable order
(ties in row order, NaN last). It scans that block one value at a time
with the same sums in the same order, the same gain expression and the
same tie-break. Its total is a running sum over its rows in ascending
order, and its children are its rows split by the same comparison. The
feature sampler is called at the same nodes in the same pre-order. The
gains are therefore bit for bit those of a scalar scan, which
tests/oracles.py checks, whichever path grows a node.

Two-row nodes: a node of two rows that may split grows with its children
in one pass, with no sort and no scan. A feature of such a node has a
boundary only where both values are non-NaN and differ, and then the
lower value's row goes left; so the node has at most two candidate gains,
one per row on the left, formed once by the scan's expression. Per
sampled feature the two values are compared directly, and the first
maximum whose midpoint does not collapse wins, as in the scan; with no
NaN on either side of the boundary, missing values go left, as the scan
records them. Each child holds one row and is a leaf, but one whose h is
2 or more above max_depth takes a forest's sample first, as fit_tree's
may-split rule asks. In the forest benchmark, about a third of the nodes
the Python path searches have two rows.

Memory: besides the presort (int32, p + 1 rows of n) and the rank codes (2
bytes per training cell, plus each column's table of at most 65,534
distinct values; none when a column has more), both held for the fit, the
per-tree working copy (int32, p + 1 rows of the rows the tree lists), one
complex g + i*h pair and one flag per row of the matrix, the tree's node
records, and an F-order copy of x only when its columns are not
contiguous (never for a FeatureMatrix or a row slice of one), the grower's
temporaries take at most 16 eight-byte words per element of
max(SCRATCH_ELEMENTS, rows in the node), never features x rows, and none
outlives its node; the bound holds for the split search and the
partition alike. A Python subtree's lists hold p values and positions and
one pair per row of its root, which has at most SCAN_ELEMENTS rows, and no
n-sized map; the missing-value sums read only the NaN tails. The grower
and the subtree keep their state in loops with explicit stacks, not in
recursive frames or a recursive closure, so a fit leaves no reference cycle
behind. A forest tree lists its bootstrap's distinct rows, about 0.632 of
the n it draws, in a cut of the matrix's presort that fit_tree copies as
its working copy, and reads X in place. So train_forest holds the matrix's
presort and ranks, one tree's cut and working copy (int32, 2 (p + 1) per
listed row), its n-sized g and h (float64), drawn mask, pairs and flags
(34 bytes a row), and the temporaries above, but no copy of X's rows.
The ranks are counted before they are allocated: deciding against them
costs one column's temporaries (its values, its order as intp and one flag
per row), not a (p, n) array. A forecast pass (_apply_trees) holds its
(trees, rows) float64 result, the trees' joined node tables (48 bytes a
node: intp features, float64 thresholds and weights, three intp child
links) and temporaries of at most 16 eight-byte words per pair of one
block of SCRATCH_ELEMENTS pairs, whatever trees x rows is; x is copied only
when its columns are not contiguous, as above.

Chunk size: SCRATCH_ELEMENTS is 2^16 because each chunk costs a fixed run
of numpy calls, so larger chunks score a node's features in fewer calls (the
forecast pass uses it as its block of (tree, row) pairs, for the same
reason, and was not tuned apart): a
study train() makes 4,671 _score_block calls at 2^16 against 10,082 at
2^14. The size was measured in the CLI's own process, where glibc malloc's
mmap and trim thresholds were high enough that the chunks' temporaries (the
largest 1 MiB at 2^16) reuse heap pages: a study train() there takes about
1,000 minor page faults. With thresholds below 1 MiB, the pages are returned
and faulted back in on every large chunk (354,304 faults in a bare process
with a cold heap). Those thresholds used to move with what the process had
freed before; cli.main now fixes them at 4 MiB and 32 MiB, above the
temporaries of chunk sizes up to 2^17. Under the moving thresholds, 2^15
and 2^17 read slower than 2^16 (BENCH_24.json), 2^17 from those faults.
Under the fixed ones, 2^17 took 746 and 747 faults a study train() (2^16:
199 and 201) and was faster in 3 of 4 paired runs, which is unresolved.
These sizes were measured with the float gather; a chunk's gathered ranks
take 128 KiB at 2^16 instead of 512 KiB of values, and its complex pairs
(1 MiB) stay the largest temporary, so the thresholds still cover them. The
size has not been measured again with ranks.

Settings: train() reads the boosting settings (loss, learning rate, depth,
rounds, min_split_loss, lambda, early-stopping patience) from the run's
RunConfig; train_forest() takes only a tree count, a depth and a seed.

Trees: a fitted tree is one numpy structured array of NODE_DTYPE, one
record per node in pre-order (feature, threshold, default_left, left,
right, weight, gain: the fields model.json stores a column of each). The grower
collects plain records and builds the array once. Forecasts route rows
through all trees of a model in one pass (_apply_trees, level-synchronous
traversal as in Asadi, Lin & de Vries 2014): the trees' node tables are
joined once, each tree's child links shifted by its root's position, and
every (tree, row) pair that has not reached a leaf moves down one level
per step. So the pass loops once per level of the deepest tree, not once
per tree or node, and makes the same comparisons as a node-by-node walk
(a value below the threshold goes left, NaN the default way). Tree.apply is
its one-tree case (train's per-round validation scores use it). Both
models' predict_array add the pass's rows in tree order, as a
tree-at-a-time loop would: the boosted sum starts at the base score and
adds each tree's leaves times the learning rate, the forest's starts at 0
and is divided by the tree count, so forecasts are bit for bit the same.

Model files (version 3): a model file holds what predict reads and nothing
it would refit. That is the first best_round trees (predict reads no later
one), both loss histories (the evidence for the stop), and a ServingState:
the settings predict reads (SERVING_SETTINGS) with LAG_DEPTH, the
categorical encoding (its ordinal maps or hash buckets) and the seasonal
model. The nodes are stored by column: for each NODE_DTYPE field one string,
the standard padded base64 of that field's values for all trees together,
little-endian at the field's width, plus a node count per tree; every other
key is plain JSON. model_from_json() decodes each string with
base64.b64decode(validate=True) and np.frombuffer, so no node value is
parsed as a JSON number, and checks the nodes in array passes over all
trees at once; it accepts only pre-order trees over the model's features,
so a malformed file is a SchemaError naming the file (and the faulty field,
or a faulty node's tree and index), never a hang. A version 1 or 2 file is
refused with a request to retrain.

Determinism contract: ties between candidate splits break toward the lowest
feature index, then the lowest threshold, then routing missing values left.
Nodes are numbered depth-first in pre-order, which is also the order in
which a forest's feature sampler is called. Training is strictly sequential
over rounds. A node may split when it lies above max_depth and holds at
least 2 rows, or one row whose h is 2 or more. A forest's trees get each
row's multiplicity in the bootstrap as h, so a node of one distinct row
drawn twice or more takes a feature sample, then becomes a leaf, as the
node of its duplicated rows would. A boosted node of one row with h >= 2 (a
Poisson hessian) finds no boundary either and stays the same leaf, and
takes no sample. A forest's bootstraps and feature samples come from
one generator in the order of one sorted choice(p, k, replace=False) call
per node that may split; the sampler draws SAMPLE_BATCH samples per generator
call and, after each tree, rewinds the generator to the state before its
last batch and draws only the samples it handed out again, so the next
bootstrap starts where per-node calls would have left the stream.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add, itemgetter
from pathlib import Path

import numpy as np

from .features import LAG_DEPTH, Encoding, FeatureMatrix
from .ingest import INT64_RANGE, RunConfig, SchemaError
from .seasonal import SeasonalityModel

BASE_EPS = 1e-8
# elements per chunk of the split search and partition, and (tree, row)
# pairs per block of the forecast pass: chunks hold as many features (or
# working rows) as fit, and at least one. Each chunk is a fixed run of numpy
# calls, so larger chunks mean fewer calls per node; 2^16 read fastest in
# the CLI's process, not in a bare one ("Chunk size" above)
SCRATCH_ELEMENTS = 1 << 16
# a node whose search block (features x rows) has at most this many elements
# grows its whole subtree in Python lists: below it, numpy's cost per call
# exceeds the arithmetic
SCAN_ELEMENTS = 1 << 8
# feature samples a forest draws per generator call: 2k - 1 int64 draws each,
# 56 KiB a batch for p = 18 and k = 4. The batch is kept as one list of
# Python ints per sample (94 KiB for p = 18 and k = 4), built once per batch,
# so a node takes its sample with no conversion
SAMPLE_BATCH = 1 << 10


def grad_hess(loss: str, y: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gradient and hessian of the loss at raw score F.

    poisson (log link): g = e^F - y, h = e^F; squared: g = F - y, h = 1.
    """
    y = np.asarray(y, dtype=float)
    raw = np.asarray(raw, dtype=float)
    if not (np.isfinite(y).all() and np.isfinite(raw).all()):
        raise ValueError("grad_hess requires finite targets and scores")
    if loss == "poisson":
        if (y < 0).any():
            raise ValueError("poisson loss requires non-negative targets")
        mu = np.exp(raw)
        return mu - y, mu
    if loss == "squared":
        return raw - y, np.ones_like(raw)
    raise ValueError(f"unknown loss {loss!r}")


def loss_value(loss: str, y: np.ndarray, raw: np.ndarray) -> float:
    """Mean per-row loss; the quantity tracked for early stopping."""
    y = np.asarray(y, dtype=float)
    raw = np.asarray(raw, dtype=float)
    if loss == "poisson":
        return float(np.mean(np.exp(raw) - y * raw))
    if loss == "squared":
        return float(np.mean(0.5 * (raw - y) ** 2))
    raise ValueError(f"unknown loss {loss!r}")


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Second-order optimal leaf value -G / (H + lambda)."""
    denom = h_sum + reg_lambda
    if denom <= 0:
        raise ValueError(f"H + lambda must be positive, got {denom}")
    return -g_sum / denom


def best_split(
    values: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_split_loss: float,
) -> tuple[float, float, bool] | None:
    """(gain, threshold, default_left) of the best split of one feature
    column, or None if no split helps.

    values/g/h are the node's rows in row order; NaN values are missing and
    are routed left or right, whichever scores better (left on ties). The
    gain already has min_split_loss subtracted; None when it is not
    positive. This is the tree grower's block scorer, with its complex
    g + i*h pairs, applied to a one-feature block. No part of the program
    calls it: it stays only because the benchmark's tracer
    (perfbench/tracer.py) wraps it by name, and it goes when the tracer
    stops counting its calls.
    """
    if len(values) == 0:
        return None
    order = np.argsort(values, kind="stable")
    gh = _complex_pair(g, h)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        found = _score_block(
            values[order][None], gh[order][None], gh.cumsum()[-1], reg_lambda, min_split_loss
        )
    if found is None:
        return None
    gain, _, threshold, default_left = found
    return gain, threshold, default_left


def _column_cells(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(flat, stride) of an (n, p) float array: cell (r, f) is flat[f * stride + r].

    When each column of x is contiguous and the columns do not overlap
    (FeatureMatrix's layout, and any row slice of it), flat is a 1-D view
    over x's column buffer, from its first cell to its last, and nothing is
    copied; the cells between columns that belong to other rows of x's base
    are never read. Any other layout (a C-order array with several rows and
    columns, a slice that steps over rows) is copied once by
    np.asfortranarray, which leaves an array it already finds F-contiguous
    as it is.
    """
    n, p = x.shape
    item = x.itemsize
    step = x.strides[1]
    # a column of one cell is contiguous whatever its stride
    if not (n and (n == 1 or x.strides[0] == item) and step >= n * item and step % item == 0):
        x = np.asfortranarray(x)
        step = n * item
    stride = step // item
    flat = np.lib.stride_tricks.as_strided(x, shape=((p - 1) * stride + n,), strides=(item,), writeable=False)
    return flat, stride


def _complex_pair(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g + i*h as one complex128 array, each part bit for bit its input.

    Assigned part by part: g + 1j * h would add +0.0 to every real part,
    which turns a -0.0 gradient into +0.0.
    """
    gh = np.empty(len(g), dtype=complex)
    gh.real = g
    gh.imag = h
    return gh


def _score_block(
    xv: np.ndarray,
    ghv: np.ndarray,
    gh_total: complex,
    reg_lambda: float,
    min_split_loss: float,
    tables: list | None = None,
) -> tuple[float, int, float, bool] | None:
    """Best split over a block of sorted feature rows, or None if none helps.

    Row r of xv holds one feature's values for a node's rows in stable
    ascending order with NaN last; ghv holds those rows' gradient + i *
    hessian pairs in the same order, and is overwritten with their prefix
    sums. gh_total is the node's sequential pair sum in row order. Returns
    (net gain, block row, threshold, missing left) for the first maximum in
    (row, threshold, missing-left) order.

    With tables, xv holds the values' dense ranks instead (_rank_columns:
    NaN is 0, so it still comes last), and tables[r] maps row r's ranks to
    its feature's values. Adjacent ranks rise exactly where adjacent values
    do, and a NaN's 0 is no boundary, as a NaN is not; the NaN tail is the
    ranks of 0, after the row's nonzero ones. Only the winner's two ranks are
    looked up, so its threshold is the midpoint of the same two values.

    Candidates follow "Exactness" in the module docstring: H + lambda > 0
    on both sides, and only the winner's midpoint is formed; a collapsed one
    drops its boundary and the next maximum wins. The caller enters
    np.errstate.
    """
    g_total, h_total = gh_total.real, gh_total.imag
    node_den = h_total + reg_lambda
    if not node_den > 0:
        return None
    k, m = xv.shape
    flat = xv.ravel()
    # a candidate lies between adjacent values of one row; NaN compares false,
    # and so does its rank 0 against any rank
    between = flat[:-1] < flat[1:]
    between[m - 1 :: m] = False  # pairs that straddle two rows
    pair = np.flatnonzero(between)
    del between
    if pair.size == 0:
        return None
    # each NaN tail's own sequential sum, from its first value on (where the
    # NaN-aware searchsorted puts NaN, or after the nonzero ranks), before
    # ghv turns into prefix sums
    tail = np.isnan(xv[:, -1]) if tables is None else xv[:, -1] == 0
    tail_rows = np.flatnonzero(tail).tolist()
    starts = [xv[r].searchsorted(np.nan) if tables is None else np.count_nonzero(xv[r]) for r in tail_rows]
    gh_miss = [ghv[r, start:].cumsum()[-1] for r, start in zip(tail_rows, starts)]
    # complex addition adds the real and the imaginary parts apart, so one
    # cumsum gives the sequential g and h prefix sums of the scalar scan
    np.cumsum(ghv, axis=1, out=ghv)
    ghl = ghv.ravel().take(pair)
    base = g_total * g_total / node_den

    def net_gain(gl: np.ndarray, hl: np.ndarray) -> np.ndarray:
        # the scan's expression, one operation at a time into two buffers
        den_l, den_r = den = np.empty((2, len(gl)))
        np.add(hl, reg_lambda, out=den_l)
        np.subtract(h_total, hl, out=den_r)
        den_r += reg_lambda
        bad = None if den.min(initial=np.inf) > 0 else ~(den > 0).all(axis=0)  # NaN fails too
        gain = gl * gl
        gain /= den_l
        right = np.subtract(g_total, gl, out=den_l)
        right *= right
        right /= den_r
        gain += right
        gain -= base
        gain *= 0.5
        gain -= min_split_loss
        if bad is not None:
            gain[bad] = -np.inf
        return gain

    gains = net_gain(ghl.real, ghl.imag)  # missing values routed right
    # a row without missing values routes them either way at the same gain
    left = best = gains
    if tail_rows:
        # pair lists the candidates row by row: counts[r] of them in row r
        bounds = np.searchsorted(pair, np.arange(k + 1) * m)
        counts = bounds[1:] - bounds[:-1]
        every = len(tail_rows) == k
        in_tail = slice(None) if every else np.repeat(tail, counts)
        ghl = ghl[in_tail]  # the right-routed sums are spent: add in place
        ghl += gh_miss[0] if len(tail_rows) == 1 else np.repeat(gh_miss, counts[tail_rows])
        left = net_gain(ghl.real, ghl.imag)
        del ghl
        if not every:
            left_tail, left = left, gains.copy()
            left[in_tail] = left_tail
        best = np.maximum(left, gains)  # missing-left wins ties: it comes first in the scan
    while True:
        # argmax stops on a NaN gain (inf - inf), which only an infinite or
        # NaN base term makes, and then no gain is above 0
        c = int(best.argmax())
        gain = float(best[c])
        if not gain > 0:
            return None
        j = int(pair[c])
        r = j // m
        lo, hi = (flat[j], flat[j + 1]) if tables is None else (tables[r][flat[j]], tables[r][flat[j + 1]])
        lo = float(lo)
        threshold = (lo + float(hi)) / 2.0
        if lo < threshold:
            return gain, r, threshold, bool(left[c] == gain)
        best[c] = -np.inf  # the midpoint collapsed onto lo


def _scan_block(
    xv: list,
    ghv: list,
    gh_total: complex,
    reg_lambda: float,
    min_split_loss: float,
) -> tuple[float, int, float, bool] | None:
    """_score_block for a block given as a list of row sequences, one Python step per value.

    For small blocks, where numpy's cost per call outweighs the arithmetic.
    It forms the same sums in the same order (a running complex sum along
    each row, the NaN tail summed from its first value on) and the same gain
    expression, and keeps the first maximum in (row, threshold,
    missing-left) order, so it returns what _score_block returns. Sums are
    explicit additions, never sum(), which compensates rounding from Python
    3.12 on. The H + lambda > 0 rule is checked before each division, so
    no quotient has a zero divisor.
    """
    g_total, h_total = float(gh_total.real), float(gh_total.imag)
    node_den = h_total + reg_lambda
    if not node_den > 0:
        return None
    base = g_total * g_total / node_den
    best = None
    best_gain = 0.0
    for r, (values, pairs) in enumerate(zip(xv, ghv)):
        k = len(values)
        while k and values[k - 1] != values[k - 1]:  # NaN last
            k -= 1
        ghl = pairs[0]
        if k == len(values):
            # no missing values: they route either way at the same gain, and
            # left wins. Both sides need H + lambda above 0; only a gain that
            # would win forms its midpoint, and one that rounds back onto lo
            # is no candidate
            for pos in range(1, k):
                lo, hi = values[pos - 1], values[pos]
                if lo < hi:
                    gl, hl = ghl.real, ghl.imag
                    gr = g_total - gl
                    den_l, den_r = hl + reg_lambda, h_total - hl + reg_lambda
                    if den_l > 0.0 < den_r:
                        gain = 0.5 * (gl * gl / den_l + gr * gr / den_r - base) - min_split_loss
                        # NaN never wins
                        if gain > best_gain and lo < (threshold := (lo + hi) / 2.0):
                            best_gain, best = gain, (r, threshold, True)
                ghl = ghl + pairs[pos]
            continue
        miss = pairs[k]
        for pair in pairs[k + 1 :]:
            miss = miss + pair
        for pos in range(1, k):
            lo, hi = values[pos - 1], values[pos]
            if lo < hi:
                gl, hl = ghl.real, ghl.imag
                # missing values left, then right, under the same rules
                gml, hml = gl + miss.real, hl + miss.imag
                gmr = g_total - gml
                den_l, den_r = hml + reg_lambda, h_total - hml + reg_lambda
                if den_l > 0.0 < den_r:
                    gain = 0.5 * (gml * gml / den_l + gmr * gmr / den_r - base) - min_split_loss
                    if gain > best_gain and lo < (threshold := (lo + hi) / 2.0):
                        best_gain, best = gain, (r, threshold, True)
                gr = g_total - gl
                den_l, den_r = hl + reg_lambda, h_total - hl + reg_lambda
                if den_l > 0.0 < den_r:
                    gain = 0.5 * (gl * gl / den_l + gr * gr / den_r - base) - min_split_loss
                    if gain > best_gain and lo < (threshold := (lo + hi) / 2.0):
                        best_gain, best = gain, (r, threshold, False)
            ghl = ghl + pairs[pos]
    return None if best is None else (best_gain, *best)


def _scan_pair(
    values: list,
    a: int,
    b: int,
    pa: complex,
    pb: complex,
    gh_total: complex,
    features: list,
    reg_lambda: float,
    min_split_loss: float,
) -> tuple[float, int, float, bool] | None:
    """_scan_block for a node of two rows: (net gain, feature, threshold,
    whether row a goes left), or None.

    values[f][a] and values[f][b] are the rows' values of feature f, pa and
    pb their g + i*h pairs and gh_total is pa + pb. A feature has a
    boundary only where both values are non-NaN and differ, and the lower
    one's row is then the left side, so the node has at most two gains, one
    with each row on the left. Both are formed once, by _scan_block's
    expression under its H + lambda > 0 rule, and each feature only
    compares its two values; the first maximum whose midpoint does not
    collapse wins. No boundary has a missing value to route, so the split
    routes them left, as _scan_block records it.
    """
    g_total, h_total = gh_total.real, gh_total.imag
    node_den = h_total + reg_lambda
    if not node_den > 0:
        return None
    base = g_total * g_total / node_den
    # the net gains with row a on the left, then row b; 0.0 stands for no
    # candidate, as no gain above 0 is
    gains = []
    for gl, hl in ((pa.real, pa.imag), (pb.real, pb.imag)):
        gr = g_total - gl
        den_l, den_r = hl + reg_lambda, h_total - hl + reg_lambda
        gains.append(
            0.5 * (gl * gl / den_l + gr * gr / den_r - base) - min_split_loss if den_l > 0.0 < den_r else 0.0
        )
    gain_a, gain_b = gains
    best = None
    best_gain = 0.0
    for f in features:
        va, vb = values[f][a], values[f][b]
        if va < vb:
            gain, lo, hi = gain_a, va, vb
        elif vb < va:
            gain, lo, hi = gain_b, vb, va
        else:  # equal, or a NaN: no boundary
            continue
        # NaN never wins
        if gain > best_gain and lo < (threshold := (lo + hi) / 2.0):
            best_gain, best = gain, (f, threshold, va < vb)
    return None if best is None else (best_gain, *best)


# one record per node, in pre-order; model.json stores a column per field, in this order
NODE_DTYPE = np.dtype([
    ("feature", np.int32),       # -1 marks a leaf
    ("threshold", np.float64),
    ("default_left", np.int8),   # 1 routes missing values left
    ("left", np.int32),          # child indices, -1 on leaves
    ("right", np.int32),
    ("weight", np.float64),      # leaf value, 0 on internal nodes
    ("gain", np.float64),        # raw split gain, >= min_split_loss on internals
])


@dataclass
class Tree:
    nodes: np.ndarray  # NODE_DTYPE records in pre-order, root first

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf weight reached by each row of x: the one-tree case of
        _apply_trees."""
        return _apply_trees([self], x)[0]


def _apply_trees(trees: list[Tree], x: np.ndarray) -> np.ndarray:
    """Leaf weights of the rows of x in each tree: a (len(trees), n) array
    whose row t is what a node-by-node walk of trees[t] gives.

    The trees' node tables are concatenated once, each tree's child links
    shifted by the position of its root. Every (tree, row) pair not yet at
    a leaf moves down one level per step, so the loop runs once per level
    of the deepest tree, not once per tree or node. A row goes left when its
    value is below the node's threshold, and a missing value goes the
    node's default way. The pairs go through in blocks of at most
    SCRATCH_ELEMENTS, tree by tree and row by row within a tree, so the
    temporaries do not grow with trees x rows. Values are gathered from x's
    columns (_column_cells): with no copy when they are contiguous, as a
    FeatureMatrix's are, and from one F-order copy otherwise.
    """
    n = x.shape[0]
    out = np.empty((len(trees), n))
    if out.size == 0:
        return out
    sizes = [len(tree.nodes) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)

    def column(name, dtype=None):
        return np.concatenate([tree.nodes[name] for tree in trees], dtype=dtype)

    # contiguous intp tables and 1-D takes are numpy's fastest gathers
    feature = column("feature", np.intp)
    threshold, weight = column("threshold"), column("weight")
    shift = np.repeat(roots, sizes)
    left, right = column("left", np.intp) + shift, column("right", np.intp) + shift
    # child per (node, branch): branch 0 is a value below the threshold, 1 a
    # value not below it, 2 a missing value. A leaf's links are never read
    route = np.stack([left, right, np.where(column("default_left") == 1, left, right)], axis=1).ravel()
    del shift, left, right
    cells, stride = _column_cells(x)
    flat = out.reshape(-1)  # pair (t, r) is flat[t * n + r]
    for start in range(0, out.size, SCRATCH_ELEMENTS):
        pairs = np.arange(start, min(start + SCRATCH_ELEMENTS, out.size))
        rows = pairs % n
        node = roots.take(pairs // n)  # where each pair is
        while pairs.size:
            f = feature.take(node)
            leaf = f < 0
            if leaf.any():
                flat[pairs[leaf]] = weight.take(node[leaf])
                inner = np.flatnonzero(~leaf)
                pairs, rows, node, f = pairs.take(inner), rows.take(inner), node.take(inner), f.take(inner)
            col = cells.take(f * stride + rows)
            branch = 1 + np.isnan(col) - (col < threshold.take(node))
            node = route.take(3 * node + branch)
    return out


def presort_columns(x: np.ndarray) -> np.ndarray:
    """fit_tree's presort of x: an int32 (p + 1, n) array of row indices.

    Row f < p lists x's rows in stable ascending order of column f, NaN
    last; row p lists them in ascending order. One column is sorted at a
    time, so no (n, p) index temporary is made. A FeatureMatrix's columns
    are contiguous, so each argsort reads one contiguous column.
    """
    n, p = x.shape
    order = np.empty((p + 1, n), dtype=np.int32)
    for j in range(p):
        order[j] = np.argsort(x[:, j], kind="stable")
    order[p] = np.arange(n)
    return order


def _rank_columns(cells: np.ndarray, stride: int, order: np.ndarray) -> tuple[np.ndarray, list] | None:
    """(codes, tables): each cell's dense rank in its column, or None when a
    column has more than 65,534 distinct values.

    cells and stride are x's from _column_cells, order its presort_columns;
    train() and train_forest() call it once per training matrix, and every
    tree of the fit reads the result. Rank 1 is a column's smallest non-NaN
    value and each larger distinct value takes the next rank; equal values,
    -0.0 and 0.0 too, share one, and NaN is 0. codes is a C-order uint16
    (p, n) array, cell (r, f) at codes[f, r], and
    tables[f][rank] is column f's value of that rank (NaN at 0). 65,534
    leaves the largest uint16 unused. When x has more rows than that, each
    column is counted before the (p, n) array is allocated, so an x that
    keeps the float gather never holds one; fewer rows cannot hold more
    distinct values, and are not counted.
    """
    p, n = len(order) - 1, order.shape[1]
    most = np.iinfo(np.uint16).max - 1

    def sorted_column(f):
        # the column's values in presort order, and a flag on the first
        # position of each distinct non-NaN value: NaN fails both comparisons
        values = cells[f * stride : f * stride + n].take(order[f])
        first = np.empty(n, dtype=bool)
        np.equal(values[:1], values[:1], out=first[:1])
        np.less(values[:-1], values[1:], out=first[1:])
        return values, first

    if n > most and any(np.count_nonzero(sorted_column(f)[1]) > most for f in range(p)):
        return None
    codes = np.empty((p, n), dtype=np.uint16)
    tables = []
    for f in range(p):
        values, first = sorted_column(f)
        rank = np.cumsum(first, dtype=np.uint16)
        rank[values.searchsorted(np.nan) :] = 0  # the NaN tail
        codes[f, order[f]] = rank
        tables.append(np.concatenate(([np.nan], values.compress(first))))
    return codes, tables


def fit_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    reg_lambda: float,
    min_split_loss: float,
    feature_sampler=None,
    *,
    order: np.ndarray,
    ranks: tuple[np.ndarray, list] | None,
    leaf_values: np.ndarray | None = None,
) -> Tree:
    """Grow one tree depth-first on the given gradients, over the rows order lists.

    order is presort_columns(x), or that presort cut down to some of x's
    rows: the same rows in each of its rows, each row listed at most once,
    in the presort's order. train_forest cuts it to each tree's distinct
    bootstrap rows. g and h are indexed by x's row. ranks is _rank_columns
    of x and its presort, or None, which makes the search gather x's values
    (as where a column is too wide for ranks). train() passes one presort
    and its ranks to every round.

    feature_sampler, when set, returns the (ascending) candidate feature
    indices for each split; bagging uses it for per-split column subsampling,
    and then h holds each row's multiplicity (a bootstrap count, 1 for a
    plain row). It is called once per node that may split, in pre-order. A
    node may split when depth < max_depth and it holds 2 rows or more, or
    one row whose h is 2 or more, with or without a sampler. A node of one
    row reaches the search, finds no boundary and becomes the leaf it would
    be without the search: a forest's row drawn twice or more takes a sample
    first, as the node of its duplicated rows would, and a boosted row whose
    Poisson hessian is 2 or more takes none.

    The tree grows on a working copy of order: each node is a position range
    [lo, hi) of it, whose rows list the node's rows sorted by each feature,
    and a split partitions the range stably in place. The search then scores
    the node's presorted block, of ranks or of values, with sequential sums
    in the stable order, so trees equal those of a brute-force scan bit for
    bit, with or without ranks. A split whose children are at max_depth
    partitions only the last row, since no child is searched. Memory is the
    working copy, one complex g + i*h pair and one flag per row of x, the
    node records, the copy of x below if one is made, and temporaries of at
    most 16 eight-byte words per element of max(SCRATCH_ELEMENTS, hi - lo).

    A node whose search block (features x rows) has at most SCAN_ELEMENTS
    elements grows its whole subtree in Python lists (_grow_subtree), with
    the records, leaf weights and sampler calls the loop would make; the
    loop then goes on with the next node on its stack.

    leaf_values, when given, is a float array of len(x) that receives the
    leaf weight of each row order lists: tree.apply(x) on those rows
    without walking the tree again.

    x is read column by column through one 1-D view of its column buffer
    (_column_cells): the search's gathers (without ranks), the split column
    and a Python subtree's value lists all take a feature's values from its
    own column.
    A FeatureMatrix's x (or a row slice of it) has contiguous columns and
    is not copied; an x whose columns are not contiguous is copied to F
    order once per call.
    """
    n, p = x.shape
    if order.ndim != 2 or len(order) != p + 1:
        raise ValueError(f"presort has shape {order.shape}, expected {p + 1} rows")
    if ranks is not None and ranks[0].shape != (p, n):
        raise ValueError(f"ranks have shape {ranks[0].shape}, expected {(p, n)}")
    cells, stride = _column_cells(x)
    # what the search gathers: each cell's rank, cell (r, f) at f * n + r, or x's cells
    keys, key_stride, tables = (cells, stride, None) if ranks is None else (ranks[0].ravel(), n, ranks[1])
    work = order.copy()
    gh = _complex_pair(g, h)
    goes_left = np.empty(n, dtype=bool)
    all_features = list(range(p))
    records = []  # the NODE_DTYPE fields of each node, in pre-order
    # (lo, hi, depth, parent); a parent index marks a right child to link
    stack = [(0, work.shape[1], 0, -1)]
    # a gain that overflows, or that divides by an H + lambda the search then
    # rejects, is inf or NaN, not a warning
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while stack:
            lo, hi, depth, parent = stack.pop()
            idx = len(records)
            if parent >= 0:
                records[parent][4] = idx
            rows = work[p, lo:hi]
            features = None
            # a node of one row may split when its h is 2 or more (see above)
            if depth < max_depth and (hi - lo >= 2 or gh[rows[0]].imag >= 2):
                features = all_features if feature_sampler is None else feature_sampler(p)
                if len(features) * (hi - lo) <= SCAN_ELEMENTS:
                    _grow_subtree(
                        cells, stride, gh, work, lo, hi, depth, features, max_depth, reg_lambda,
                        min_split_loss, feature_sampler, records, leaf_values,
                    )
                    continue
            gh_sum = gh.take(rows).cumsum()[-1]
            split = None
            if features is not None:
                split = _search_node(
                    keys, key_stride, tables, gh, work, lo, hi,
                    None if features is all_features else np.asarray(features),
                    gh_sum, reg_lambda, min_split_loss,
                )
            if split is None:
                weight = leaf_weight(float(gh_sum.real), float(gh_sum.imag), reg_lambda)
                records.append((-1, 0.0, 1, -1, -1, weight, 0.0))
                if leaf_values is not None:
                    leaf_values[rows] = weight
                continue
            gain, feature, threshold, default_left = split
            # pre-order: the left child is numbered next; the right one is linked when popped
            records.append([feature, threshold, int(default_left), idx + 1, -1, 0.0, gain + min_split_loss])
            col = cells[feature * stride :].take(rows)
            left = col < threshold
            if default_left:
                left |= np.isnan(col)
            goes_left[rows] = left
            n_left = int(np.count_nonzero(left))
            # no child of the last level is searched: only its rows are read
            _partition(work[p:] if depth + 1 == max_depth else work, lo, hi, goes_left, n_left)
            stack.append((lo + n_left, hi, depth + 1, idx))
            stack.append((lo, lo + n_left, depth + 1, -1))
    return Tree(np.array(list(map(tuple, records)), dtype=NODE_DTYPE))


def _search_node(
    keys, stride, tables, gh, work, lo, hi, features, gh_total, reg_lambda, min_split_loss
) -> tuple[float, int, float, bool] | None:
    """Best (net gain, feature, threshold, missing left) for one node, or None.

    features is the node's sampled features, or None for every feature;
    then each chunk's rows of work are a view, not a copy. The block is
    scored in chunks of at most SCRATCH_ELEMENTS block elements (at least
    one feature); a later chunk wins only with a strictly larger gain, so
    the first maximum in feature order is kept. Cell (r, f) is
    keys[f * stride + r], so each feature's keys are gathered from its own
    contiguous column: x's cells from _column_cells when tables is None,
    else the flat codes of _rank_columns, with its tables.
    """
    p = work.shape[0] - 1
    step = max(1, SCRATCH_ELEMENTS // (hi - lo))
    best = None
    for start in range(0, p if features is None else len(features), step):
        if features is None:
            chunk = np.arange(start, min(start + step, p))
            idx = work[start : start + len(chunk), lo:hi]
        else:
            chunk = features[start : start + step]
            idx = work[chunk, lo:hi]
        flat = idx.astype(np.intp)  # the rows, then their cells
        ghv = gh.take(flat)
        flat += (chunk * stride)[:, None]
        found = _score_block(
            keys.take(flat), ghv, gh_total, reg_lambda, min_split_loss,
            None if tables is None else [tables[f] for f in chunk.tolist()],
        )
        if found is not None and (best is None or found[0] > best[0]):
            gain, r, threshold, default_left = found
            best = (gain, int(chunk[r]), threshold, default_left)
    return best


def _grow_subtree(
    cells, stride, gh, work, lo, hi, depth, features, max_depth, reg_lambda, min_split_loss,
    feature_sampler, records, leaf_values,
) -> None:
    """Grow the whole subtree of node [lo, hi) of work in Python lists.

    The node's search block has at most SCAN_ELEMENTS elements (see "Small
    subtrees" in the module docstring). features is the node's own, already
    sampled list; each descendant that may split calls feature_sampler in
    pre-order. Records are appended to records and leaf weights written to
    leaf_values as fit_tree's loop writes them. cells and stride are x's
    from _column_cells. Each row of work lists a row at most once, as
    fit_tree's order does, so one argsort of the block's row indices maps
    every row to its position in each presorted row.

    A node of two rows that may split grows with its two one-row children
    in one pass ("Two-row nodes" in the module docstring): its records,
    their leaf weights and their sampler calls are those the loop would
    make for the three nodes, in the same order. A feature sampler's sample
    may be a list or an array of feature indices.
    """
    p = work.shape[0] - 1
    rows = work[p, lo:hi]
    m = hi - lo
    # values[f][j]: feature f of the j-th row
    values = cells.take(rows + (np.arange(p) * stride)[:, None]).tolist()
    pairs = gh.take(rows).tolist()
    # rank[f][j]: the j-th row's position in the node's rows sorted by
    # feature f; rows is ascending, so argsort inverts each presorted row
    rank = work[:p, lo:hi].argsort(axis=1).tolist()
    all_features = list(range(p))
    leaf_of = None if leaf_values is None else [0.0] * m  # each row's leaf weight
    # (rows, depth, parent, features): rows ascending; features None until sampled
    stack = [(list(range(m)), depth, -1, features)]
    while stack:
        local, depth, parent, features = stack.pop()
        idx = len(records)
        if parent >= 0:
            records[parent][4] = idx
        if len(local) == 2 and depth < max_depth:
            # the node and its two one-row children in one pass ("Two-row nodes")
            if features is None:
                features = all_features if feature_sampler is None else feature_sampler(p)
            a, b = local
            pa, pb = pairs[a], pairs[b]
            total = pa + pb
            found = _scan_pair(values, a, b, pa, pb, total, features, reg_lambda, min_split_loss)
            if found is None:
                weight = leaf_weight(total.real, total.imag, reg_lambda)
                records.append((-1, 0.0, 1, -1, -1, weight, 0.0))
                if leaf_of is not None:
                    leaf_of[a] = leaf_of[b] = weight
                continue
            gain, f, threshold, a_left = found
            records.append((f, threshold, 1, idx + 1, idx + 2, 0.0, gain + min_split_loss))
            for j, q in ((a, pa), (b, pb)) if a_left else ((b, pb), (a, pa)):
                # fit_tree's rule: one row may split when its h is 2 or more,
                # so a forest's child takes a sample, then stays a leaf
                if feature_sampler is not None and depth + 1 < max_depth and q.imag >= 2:
                    feature_sampler(p)
                weight = leaf_weight(q.real, q.imag, reg_lambda)
                records.append((-1, 0.0, 1, -1, -1, weight, 0.0))
                if leaf_of is not None:
                    leaf_of[j] = weight
            continue
        # explicit additions from the first pair on, as numpy's complex cumsum
        total = reduce(add, map(pairs.__getitem__, local))
        found = None
        # fit_tree's rule: one row may split when its h is 2 or more
        if depth < max_depth and (len(local) >= 2 or total.imag >= 2):
            if features is None:
                features = all_features if feature_sampler is None else feature_sampler(p)
            if len(local) >= 2:  # one row has no boundary: it stays a leaf
                orders, xv, ghv = [], [], []
                for f in features:
                    order = sorted(local, key=rank[f].__getitem__)
                    gather = itemgetter(*order)  # a tuple: the node has 2 rows or more
                    orders.append(order)
                    xv.append(gather(values[f]))
                    ghv.append(gather(pairs))
                found = _scan_block(xv, ghv, total, reg_lambda, min_split_loss)
        if found is None:
            weight = leaf_weight(total.real, total.imag, reg_lambda)
            records.append((-1, 0.0, 1, -1, -1, weight, 0.0))
            if leaf_of is not None:
                for j in local:
                    leaf_of[j] = weight
            continue
        gain, r, threshold, default_left = found
        records.append([features[r], threshold, int(default_left), idx + 1, -1, 0.0, gain + min_split_loss])
        # in the feature's order, the values below the threshold come first
        # and the NaN tail last; NaN fails every comparison, so bisect stops
        # before the tail
        order, sorted_values = orders[r], xv[r]
        below = bisect_left(sorted_values, threshold)
        end = len(order)
        if default_left:
            while end > below and sorted_values[end - 1] != sorted_values[end - 1]:
                end -= 1
        stack.append((sorted(order[below:end]), depth + 1, idx, None))
        stack.append((sorted(order[:below] + order[end:]), depth + 1, -1, None))
    if leaf_values is not None:
        leaf_values[rows] = leaf_of


def _partition(work: np.ndarray, lo: int, hi: int, goes_left: np.ndarray, n_left: int) -> None:
    """Stable in-place partition of columns lo:hi of every row of work.

    Rows flagged in goes_left move to lo:lo + n_left, the rest follow; each
    side keeps its order, so each row stays sorted by its feature. Every row
    of a chunk lists the same rows, so each keeps exactly n_left on the left
    and one 1-D compress of the chunk, reshaped, partitions all of them.
    """
    step = max(1, SCRATCH_ELEMENTS // (hi - lo))
    for start in range(0, work.shape[0], step):
        seg = work[start : start + step, lo:hi]
        flat = seg.ravel()  # a view when seg is one row: compress both sides first
        mask = goes_left.take(flat)
        left = flat.compress(mask)
        right = flat.compress(~mask)
        seg[:, :n_left] = left.reshape(seg.shape[0], n_left)
        seg[:, n_left:] = right.reshape(seg.shape[0], hi - lo - n_left)


@dataclass
class BoostedModel:
    """Fitted ensemble; prediction uses trees[0..best_round) only."""

    loss: str
    base_score: float
    learning_rate: float
    feature_names: list[str]
    trees: list[Tree]
    best_round: int
    train_loss: list[float] = field(repr=False)
    valid_loss: list[float] = field(repr=False)

    def predict_array(self, x: np.ndarray) -> np.ndarray:
        """Forecasts for the rows of x; a model that overflows gives inf or
        NaN, not a warning (predict() rejects them)."""
        raw = np.full(x.shape[0], self.base_score)
        with np.errstate(over="ignore", invalid="ignore"):
            for leaf in _apply_trees(self.trees[: self.best_round], x):
                raw += self.learning_rate * leaf
            return np.exp(raw) if self.loss == "poisson" else raw


def train(matrix: FeatureMatrix, config: RunConfig, valid: FeatureMatrix) -> BoostedModel:
    """Boost up to config.rounds trees with early stopping on valid loss.

    Reads the config's loss, learning_rate, max_depth, rounds,
    min_split_loss, reg_lambda and early_stop_patience; bounds are checked
    where the config is loaded (RunConfig.validate), not here. Loss
    histories are recorded per round starting from the base-only model;
    best_round is the first round attaining the minimum validation loss.
    """
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.targets is None:
        raise ValueError("training matrix has no targets")
    if valid.columns != matrix.columns:
        raise ValueError("train and validation matrices must share the feature schema")
    if valid.n_rows == 0:
        raise ValueError("cannot validate on an empty matrix")
    if valid.targets is None:
        raise ValueError("validation matrix has no targets")
    y = matrix.targets
    if config.loss == "poisson":
        if (y < 0).any():
            raise ValueError("poisson loss requires non-negative targets")
        base = math.log(float(y.mean()) + BASE_EPS)
    else:
        base = float(y.mean())

    raw = np.full(matrix.n_rows, base)
    raw_valid = np.full(valid.n_rows, base)
    train_hist = [loss_value(config.loss, y, raw)]
    valid_hist = [loss_value(config.loss, valid.targets, raw_valid)]
    trees: list[Tree] = []
    best_valid = valid_hist[0]
    best_round = 0
    stale = 0
    order = presort_columns(matrix.X)
    ranks = _rank_columns(*_column_cells(matrix.X), order)
    leaf_values = np.empty(matrix.n_rows)
    for _ in range(config.rounds):
        g, h = grad_hess(config.loss, y, raw)
        tree = fit_tree(
            matrix.X, g, h, config.max_depth, config.reg_lambda, config.min_split_loss,
            order=order, leaf_values=leaf_values, ranks=ranks,
        )
        trees.append(tree)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = raw + config.learning_rate * leaf_values
            train_hist.append(loss_value(config.loss, y, raw))
            raw_valid = raw_valid + config.learning_rate * tree.apply(valid.X)
            valid_hist.append(loss_value(config.loss, valid.targets, raw_valid))
        # a score that is not finite makes the mean loss inf or nan; a model
        # file holds finite loss histories only
        for name, hist in (("training", train_hist), ("validation", valid_hist)):
            if not math.isfinite(hist[-1]):
                raise ValueError(
                    f"training diverged in round {len(trees)}: the {name} loss is "
                    f"{hist[-1]} with learning_rate {config.learning_rate}"
                )
        if valid_hist[-1] < best_valid:
            best_valid = valid_hist[-1]
            best_round = len(trees)
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    return BoostedModel(
        loss=config.loss,
        base_score=base,
        learning_rate=config.learning_rate,
        feature_names=list(matrix.columns),
        trees=trees,
        best_round=best_round,
        train_loss=train_hist,
        valid_loss=valid_hist,
    )


def predict(model: BoostedModel | ForestModel, matrix: FeatureMatrix, source: str = "model") -> np.ndarray:
    """Forecast per row; raises if the matrix schema differs from training.

    A forecast that is not finite (the model overflows on its row) is a
    ValueError naming source and the first such row's (product, week).
    """
    if matrix.columns != model.feature_names:
        raise ValueError(
            f"{source}: feature schema mismatch: model expects {model.feature_names}, "
            f"matrix has {matrix.columns}"
        )
    forecasts = model.predict_array(matrix.X)
    bad = ~np.isfinite(forecasts)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{source}: forecast for ({matrix.product_ids[k]!r}, {matrix.target_weeks[k]}) "
            f"is {forecasts[k]}, not a finite number"
        )
    return forecasts


@dataclass
class ForestModel:
    feature_names: list[str]
    trees: list[Tree]

    def predict_array(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros(x.shape[0])
        for leaf in _apply_trees(self.trees, x):
            total += leaf
        return total / len(self.trees)


def train_forest(matrix: FeatureMatrix, n_trees: int, max_depth: int, seed: int) -> ForestModel:
    """Bagged regression trees up to max_depth (squared loss, mean leaves).

    Each tree sees a bootstrap resample and k = ⌊√p⌋ (math.isqrt(p))
    random features per split; both draws come from one seeded generator,
    so results are reproducible. The split samples are those of one
    np.sort(rng.choice(p, k, replace=False)) per node, drawn SAMPLE_BATCH
    at a time (_FeatureSampler). After each tree the generator is set back
    to its state before the last batch and the samples handed out are drawn
    again, so the next bootstrap reads the stream where per-node calls
    would have left it. Leaves are unregularized (lambda 0) and any split
    that lowers the loss is taken (min_split_loss 0).

    A tree grows on its bootstrap's distinct rows, each weighted by its
    count c (g = -y * c, h = c), not on every copy (as scikit-learn's
    forests pass bootstrap counts as sample weights); that weighted tree is
    the forest's definition, whatever the targets. On integer targets with
    max|y| * n < 2^53 (unit counts), every sum the grower forms is an
    integer below 2^53 both ways, so exact in any order, and the trees are
    node for node those grown on every copy (fit_tree's "may split" counts
    rows with h).

    matrix.X is presorted and rank-coded once per fit, and every tree reads
    it in place: a tree's presort is the matrix's with each row cut to the
    drawn rows, in the presort's order (one boolean index of the whole
    presort), so no tree copies X's rows, sorts or ranks.
    """
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got n_trees={n_trees}")
    if matrix.n_rows == 0:
        raise ValueError("cannot train on an empty matrix")
    if matrix.targets is None:
        raise ValueError("training matrix has no targets")
    rng = np.random.default_rng(seed)
    n = matrix.n_rows
    p = matrix.X.shape[1]
    n_sub = max(1, int(math.isqrt(p)))
    y = matrix.targets
    order = presort_columns(matrix.X)
    ranks = _rank_columns(*_column_cells(matrix.X), order)
    trees: list[Tree] = []
    sampler = _FeatureSampler(rng, p, n_sub) if n_sub < p else None
    for _ in range(n_trees):
        h = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        drawn = h > 0
        # the presort cut down to the drawn rows: each presort row lists every
        # row once, so each keeps the same count. Made in the call, so no
        # tree's cut is alive while the next one is made
        trees.append(fit_tree(
            matrix.X, -y * h, h, max_depth, 0.0, 0.0, sampler, ranks=ranks,
            order=order[drawn[order]].reshape(p + 1, -1),
        ))
        if sampler is not None:
            sampler.rewind()
    return ForestModel(feature_names=list(matrix.columns), trees=trees)


class _FeatureSampler:
    """train_forest's per-split feature sampler: each call returns what
    np.sort(rng.choice(p, k, replace=False)).tolist() would, drawn
    SAMPLE_BATCH samples at a time.

    choice runs Floyd's algorithm, one bounded draw in [0, j] for each j
    from p - k to p - 1 (a value already taken becomes j), then shuffles its
    result with draws in [0, i] for i from k - 1 down to 1. Both draw with
    the bounded-integer routine of rng.integers over an array of inclusive
    bounds, so one integers call draws the values of a whole batch; Floyd's
    steps are then replayed one column at a time, and the shuffle's draws
    are only consumed (the sample is sorted). choice shuffles a tail of an
    arange instead when p > 10,000 and k > p // 50, which k = isqrt(p) never
    reaches.

    rewind() sets the generator back to its state before the current batch
    and draws again only the samples handed out, so the stream ends where
    per-node choice calls would have left it.
    """

    def __init__(self, rng: np.random.Generator, p: int, k: int) -> None:
        self.rng = rng
        self.p, self.k = p, k
        # the inclusive bounds of one sample's draws: Floyd's, then the shuffle's
        self.highs = np.concatenate([np.arange(p - k, p), np.arange(k - 1, 0, -1)])
        self.state = None  # the generator's state before the current batch
        self.batch = None  # the current batch: one sorted list a sample, the next one last
        self.left = 0  # its samples not yet handed out

    def __call__(self, n_features: int) -> list:
        if not self.left:
            self._refill()
        self.left -= 1
        return self.batch[self.left]

    def _draws(self, count: int) -> np.ndarray:
        highs = np.tile(self.highs, count)
        return self.rng.integers(0, highs, endpoint=True).reshape(count, len(self.highs))

    def _refill(self) -> None:
        self.state = self.rng.bit_generator.state
        p, k = self.p, self.k
        floyd = self._draws(SAMPLE_BATCH)[:, :k]
        for t in range(1, k):
            # Floyd's step t: a value already taken becomes its bound p - k + t
            taken = (floyd[:, :t] == floyd[:, t, None]).any(axis=1)
            floyd[taken, t] = p - k + t
        floyd.sort(axis=1)
        self.batch = floyd[::-1].tolist()
        self.left = SAMPLE_BATCH

    def rewind(self) -> None:
        """Drop the batch's unused samples and leave the generator where
        one choice call per handed-out sample would have left it."""
        if self.left:
            self.rng.bit_generator.state = self.state
            self._draws(len(self.batch) - self.left)
            self.left = 0




SERIAL_VERSION = 3
# the RunConfig settings predict reads; model.json stores them with LAG_DEPTH
SERVING_SETTINGS = ("horizon", "smooth_window", "cap_gamma", "season_period", "with_seasonality")


@dataclass(frozen=True)
class ServingState:
    """What predict reads besides the trees, as the training run fitted it:
    the SERVING_SETTINGS, the categorical encoding and the seasonal model
    (None when with_seasonality is false)."""

    settings: dict
    encoding: Encoding
    seasonal: SeasonalityModel | None

    @classmethod
    def of(cls, config: RunConfig, encoding: Encoding, seasonal: SeasonalityModel | None):
        return cls({name: getattr(config, name) for name in SERVING_SETTINGS}, encoding, seasonal)

    def config(self) -> RunConfig:
        """A RunConfig of the stored settings and encoding; predict reads no other field."""
        buckets = self.encoding.hash_buckets or RunConfig.hash_buckets
        return replace(RunConfig(), **self.settings, encoding=self.encoding.mode, hash_buckets=buckets)


def model_to_json(model: BoostedModel, state: ServingState) -> str:
    """Versioned text form of a boosted model's first best_round trees, its
    loss histories and the state predict reads; round-trips bit-exactly.

    The trees' nodes are stored by column: one string per NODE_DTYPE field,
    the standard padded base64 of that field's values for all trees, one
    after another, little-endian at the field's width (int32 feature, left
    and right, float64 threshold, weight and gain, int8 default_left);
    node_counts gives each tree's length. Every other key is plain JSON.
    """
    trees = model.trees[: model.best_round]
    nodes = np.concatenate([tree.nodes for tree in trees]) if trees else np.empty(0, NODE_DTYPE)
    encoding, seasonal = state.encoding, state.seasonal
    if encoding.mode == "ordinal":
        encoding_doc = {"mode": "ordinal", "maps": {k: list(ids) for k, ids in encoding.maps.items()}}
    else:
        encoding_doc = {"mode": "hashing", "hash_buckets": encoding.hash_buckets}
    doc = {
        "version": SERIAL_VERSION,
        "loss": model.loss,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "best_round": model.best_round,
        "feature_names": model.feature_names,
        "train_loss": model.train_loss,
        "valid_loss": model.valid_loss,
        "node_counts": [len(tree.nodes) for tree in trees],
        "nodes": {
            name: base64.b64encode(nodes[name].astype(NODE_DTYPE[name].newbyteorder("<")).tobytes()).decode()
            for name in NODE_DTYPE.names
        },
        "settings": {**state.settings, "lag_depth": LAG_DEPTH},
        "encoding": encoding_doc,
        "seasonality": None if seasonal is None else {
            "tau": seasonal.tau,
            "patterns": [pattern.tolist() for pattern in seasonal.patterns],
            "assignment": seasonal.assignment,
            "global_pattern": seasonal.global_pattern.tolist(),
        },
    }
    return json.dumps(doc)


def model_from_json(text: str | bytes, source: str) -> tuple[BoostedModel, ServingState]:
    """Parse model_to_json output; source names the file in errors.

    Anything else is a SchemaError naming source: not JSON, not an object,
    another version (versions 1 and 2 ask for a retrain), a missing key or a key
    of the wrong type. The loss must be one train knows, the learning rate
    a finite number above 0, the base score and both loss histories finite
    numbers, and best_round both a round of the histories and the number of
    stored trees. The node columns, the settings, the encoding and the
    seasonal model are checked as _trees_from_json, _settings_from_json,
    _encoding_from_json and _seasonality_from_json say.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, too deep nesting
        raise SchemaError(f"{source}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is int and version in (1, 2):
        raise SchemaError(
            f"{source}: model version {version} is no longer read; retrain to write version {SERIAL_VERSION}"
        )
    if type(version) is not int or version != SERIAL_VERSION:
        raise SchemaError(f"{source}: unsupported model version {version!r}")
    keys = (
        "loss", "learning_rate", "base_score", "best_round", "feature_names", "train_loss",
        "valid_loss", "node_counts", "nodes", "settings", "encoding", "seasonality",
    )
    try:
        loss, rate, base, best_round, names, *rest = (doc[key] for key in keys)
    except KeyError as exc:
        raise SchemaError(f"{source}: missing key {exc}") from None
    train_doc, valid_doc, counts, nodes, settings_doc, encoding_doc, seasonal_doc = rest
    if loss not in ("poisson", "squared"):
        raise SchemaError(f"{source}: unknown loss {loss!r}")
    if not (_finite(rate) and rate > 0):
        raise SchemaError(f"{source}: learning_rate {rate!r} is not a finite number above 0")
    if not _finite(base):
        raise SchemaError(f"{source}: base_score {base!r} is not a finite number")
    if not (isinstance(names, list) and all(type(name) is str for name in names)):
        raise SchemaError(f"{source}: feature_names is not a list of strings")
    train_loss = _finite_list(train_doc, f"{source}: train_loss")
    valid_loss = _finite_list(valid_doc, f"{source}: valid_loss")
    if not 0 < len(train_loss) == len(valid_loss):
        raise SchemaError(f"{source}: train_loss and valid_loss are not one loss per round")
    if type(best_round) is not int or not 0 <= best_round < len(valid_loss):
        raise SchemaError(
            f"{source}: best_round {best_round!r} outside [0, {len(valid_loss) - 1}], "
            "the rounds of the loss histories"
        )
    if not (isinstance(counts, list) and set(map(type, counts)) <= {int} and min(counts, default=1) > 0):
        raise SchemaError(f"{source}: node_counts is not a list of integers above 0")
    if len(counts) != best_round:
        raise SchemaError(f"{source}: node_counts holds {len(counts)} trees, not best_round {best_round}")
    trees = _trees_from_json(nodes, counts, len(names), source)
    settings = _settings_from_json(settings_doc, f"{source}: settings")
    encoding = _encoding_from_json(encoding_doc, names, f"{source}: encoding")
    seasonal = _seasonality_from_json(seasonal_doc, settings, f"{source}: seasonality")
    model = BoostedModel(
        loss=loss,
        base_score=float(base),  # JSON may hold an int; the raw scores are float64
        learning_rate=float(rate),
        feature_names=names,
        trees=trees,
        best_round=best_round,
        train_loss=train_loss,
        valid_loss=valid_loss,
    )
    return model, ServingState(settings, encoding, seasonal)


def _finite(value) -> bool:
    # an int too large for a float compares above the largest float, so it fails too
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _finite_list(values, where: str) -> list[float]:
    """values, a list of finite JSON numbers, as floats."""
    if isinstance(values, list) and all(map(_finite, values)):
        return [float(v) for v in values]
    raise SchemaError(f"{where} is not a list of finite numbers")


def _trees_from_json(fields, counts: list[int], n_features: int, source: str) -> list[Tree]:
    """The trees of a node table stored by column, checked in array passes.

    Every field must be a string of standard padded base64 whose bytes are
    one little-endian value of the field's NODE_DTYPE width per node of
    node_counts; a fault names the field. default_left must be 0 or 1,
    weights and gains finite and thresholds other than NaN (an infinity is
    one). A leaf (feature -1) has children -1/-1; any other node's feature
    lies in [0, n_features), its left child follows it and its right child
    lies further on in its tree, and every node but a root has one parent.
    So each tree is in pre-order, and apply() walks it forward and visits
    each node at most once per call. A fault names the tree and node of the
    first faulty node, with the first of these checks it fails; the parent
    count is checked once every node passes the rest.
    """
    if not (isinstance(fields, dict) and set(fields) == set(NODE_DTYPE.names)):
        raise SchemaError(f"{source}: nodes is not an object of the fields {', '.join(NODE_DTYPE.names)}")
    total = sum(counts)
    column = {}
    for name in NODE_DTYPE.names:
        text, dtype = fields[name], NODE_DTYPE[name].newbyteorder("<")
        if type(text) is not str:
            raise SchemaError(f"{source}: nodes field {name!r} is not a string")
        try:
            data = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            raise SchemaError(f"{source}: nodes field {name!r} is not standard padded base64") from None
        held, extra = divmod(len(data), dtype.itemsize)
        if extra:
            raise SchemaError(
                f"{source}: nodes field {name!r} holds {len(data)} bytes, not whole {dtype.itemsize}-byte values"
            )
        if held != total:
            raise SchemaError(f"{source}: nodes field {name!r} holds {held} values, but node_counts sum to {total}")
        column[name] = np.frombuffer(data, dtype)
    feature, left, right = column["feature"], column["left"], column["right"]
    default_left = column["default_left"]
    counts_array = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts_array) - counts_array
    tree = np.repeat(np.arange(len(counts)), counts_array)
    local = np.arange(total) - starts[tree]  # each node's index in its tree

    def value(name: str, k: int):
        return column[name][k].item()  # a Python number, so a problem quotes it as one

    leaf = feature == -1
    checks = [  # (faulty nodes, problem of node k), in the order a node is checked
        ((default_left != 0) & (default_left != 1),
         lambda k: f"default_left {value('default_left', k)} is not 0 or 1"),
        (~np.isfinite(column["weight"]), lambda k: f"weight {value('weight', k)} is not a finite number"),
        (np.isnan(column["threshold"]), lambda k: f"threshold {value('threshold', k)} is not a number"),
        (~np.isfinite(column["gain"]), lambda k: f"gain {value('gain', k)} is not a finite number"),
        (leaf & ((left != -1) | (right != -1)),
         lambda k: f"a leaf has children {value('left', k)}/{value('right', k)}"),
        (~leaf & ((feature < 0) | (feature >= n_features)),
         lambda k: f"feature {value('feature', k)} outside [0, {n_features})"),
        (~leaf & ((left != local + 1) | (right <= local + 1) | (right >= counts_array[tree])),
         lambda k: f"children {value('left', k)}/{value('right', k)} do not follow the node in pre-order"),
    ]
    faulty = np.logical_or.reduce([mask for mask, _ in checks])
    if faulty.any():
        k = int(np.argmax(faulty))
        problem = next(describe for mask, describe in checks if mask[k])(k)
        raise SchemaError(f"{source}: tree {tree[k]} node {local[k]}: {problem}")
    inner = ~leaf
    offset = starts[tree[inner]]
    parents = np.bincount(np.concatenate([offset + left[inner], offset + right[inner]]), minlength=total)
    shared = np.flatnonzero((parents != 1) & (local > 0))
    if shared.size:
        k = int(shared[0])
        raise SchemaError(f"{source}: tree {tree[k]} node {local[k]}: has {parents[k]} parents, expected 1")
    nodes = np.empty(total, dtype=NODE_DTYPE)
    for name in NODE_DTYPE.names:
        nodes[name] = column[name]
    return [Tree(nodes[start : start + n]) for start, n in zip(starts.tolist(), counts)]


def _settings_from_json(doc, where: str) -> dict:
    """The SERVING_SETTINGS, each as RunConfig.validate bounds it, and a
    lag_depth equal to this program's LAG_DEPTH."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [name for name in (*SERVING_SETTINGS, "lag_depth") if name not in doc]
    if missing:
        raise SchemaError(f"{where}: missing key {missing[0]!r}")
    for name, floor in (("horizon", 1), ("smooth_window", 2), ("season_period", 2)):
        if type(doc[name]) is not int or doc[name] < floor:
            raise SchemaError(f"{where}: {name} {doc[name]!r} is not an integer >= {floor}")
        if doc[name] not in INT64_RANGE:
            raise SchemaError(f"{where}: {name} {doc[name]} is outside the int64 range")
    if not (_finite(doc["cap_gamma"]) and doc["cap_gamma"] > 0):
        raise SchemaError(f"{where}: cap_gamma {doc['cap_gamma']!r} is not a finite number above 0")
    if type(doc["with_seasonality"]) is not bool:
        raise SchemaError(f"{where}: with_seasonality {doc['with_seasonality']!r} is not true or false")
    if type(doc["lag_depth"]) is not int or doc["lag_depth"] != LAG_DEPTH:
        raise SchemaError(
            f"{where}: lag_depth {doc['lag_depth']!r} is not this program's {LAG_DEPTH}; retrain the model"
        )
    return {name: float(doc[name]) if name == "cap_gamma" else doc[name] for name in SERVING_SETTINGS}


def _encoding_from_json(doc, feature_names: list[str], where: str) -> Encoding:
    """Hash buckets (an integer >= 2), or one ordinal map per categorical
    column of feature_names, each stored as its values in id order: distinct
    strings in sorted order, as fit_encoding numbers them."""
    mode = doc.get("mode") if isinstance(doc, dict) else None
    if mode == "hashing":
        buckets = doc.get("hash_buckets")
        if type(buckets) is not int or buckets < 2:
            raise SchemaError(f"{where}: hash_buckets {buckets!r} is not an integer >= 2")
        if buckets not in INT64_RANGE:
            raise SchemaError(f"{where}: hash_buckets {buckets} is outside the int64 range")
        return Encoding("hashing", {}, buckets)
    if mode != "ordinal":
        raise SchemaError(f"{where}: mode {mode!r} is not 'ordinal' or 'hashing'")
    maps = doc.get("maps")
    columns = sorted(name for name in feature_names if name == "category" or name.startswith("attr_"))
    if not isinstance(maps, dict) or sorted(maps) != columns:
        raise SchemaError(f"{where}: maps is not an object of one map per categorical column {columns}")
    for column, values in maps.items():
        if not (
            isinstance(values, list)
            and set(map(type, values)) <= {str}
            and all(a < b for a, b in zip(values, values[1:]))
        ):
            raise SchemaError(f"{where}: map {column!r} is not a list of distinct strings in sorted order")
    return Encoding("ordinal", {k: {v: i for i, v in enumerate(vs)} for k, vs in maps.items()}, None)


def _seasonality_from_json(doc, settings: dict, where: str) -> SeasonalityModel | None:
    """None when with_seasonality is false; else tau equal to season_period,
    patterns and a global pattern of tau finite numbers each, and an
    assignment of categories to pattern indices."""
    if not settings["with_seasonality"]:
        if doc is not None:
            raise SchemaError(f"{where}: stored, but with_seasonality is false")
        return None
    tau = settings["season_period"]
    if not (isinstance(doc, dict) and {"tau", "patterns", "assignment", "global_pattern"} <= set(doc)):
        raise SchemaError(f"{where}: expected an object of tau, patterns, assignment and global_pattern")
    if type(doc["tau"]) is not int or doc["tau"] != tau:
        raise SchemaError(f"{where}: tau {doc['tau']!r} is not season_period {tau}")
    patterns = doc["patterns"]
    if not isinstance(patterns, list):
        raise SchemaError(f"{where}: patterns is not a list")
    curves = [_finite_list(p, f"{where}: pattern {j}") for j, p in enumerate(patterns)]
    curves.append(_finite_list(doc["global_pattern"], f"{where}: global_pattern"))
    for j, curve in enumerate(curves):
        if len(curve) != tau:
            name = "global_pattern" if j == len(patterns) else f"pattern {j}"
            raise SchemaError(f"{where}: {name} holds {len(curve)} values, not tau {tau}")
    assignment = doc["assignment"]
    if not (
        isinstance(assignment, dict)
        and set(map(type, assignment.values())) <= {int}
        and all(0 <= idx < len(patterns) for idx in assignment.values())
    ):
        raise SchemaError(f"{where}: assignment is not an object of pattern indices in [0, {len(patterns)})")
    *fitted, global_pattern = (np.array(curve) for curve in curves)
    return SeasonalityModel(tau, fitted, assignment, global_pattern)


def save_model(model: BoostedModel, state: ServingState, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model, state))


def load_model(path: str | Path) -> tuple[BoostedModel, ServingState]:
    return model_from_json(Path(path).read_bytes(), str(path))
