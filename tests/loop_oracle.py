"""Reference loops for the array-backed tables of the graph, word, RS,
linear algebra and Merkle layers, and the per-path Merkle check that the
level multi-opening replaced.

These are the per-slot, per-class, per-point and per-leaf Python loops the
package used before its tables and words became array expressions.  They work on plain ints and
nested lists and return plain lists, so tests can compare every entry.
"""

import hashlib
import struct


def classes(adj: list[list[int]], n: int):
    """(class_of, reps, sizes, petals) in canonical order: classes numbered
    as first seen scanning slots (v, l) in row-major order."""
    class_of = [-1] * (len(adj) * n)
    reps, sizes, petals = [], [], []
    for v in range(len(adj)):
        for l in range(n):
            if class_of[v * n + l] >= 0:
                continue
            w = adj[v][l]
            class_of[v * n + l] = len(reps)
            if w == v:
                sizes.append(1)
                petals.append(len(reps))
            else:
                class_of[w * n + l] = len(reps)
                sizes.append(2)
            reps.append((v, l))
    return class_of, reps, sizes, petals


def violations(adj: list[list[int]], n: int) -> list[tuple[int, int]]:
    out = []
    for v, row in enumerate(adj):
        for l in range(n):
            w = row[l]
            if not 0 <= w < len(adj) or adj[w][l] != v:
                out.append((v, l))
    return out


def petal_counts(adj: list[list[int]]) -> list[int]:
    return [sum(1 for w in row if w == v) for v, row in enumerate(adj)]


def cut_graph(adj: list[list[int]], vertices) -> tuple[list[list[int]], list[int]]:
    kept = sorted(set(vertices))
    to_child = {v: i for i, v in enumerate(kept)}
    child = [[to_child[w] if w in to_child else to_child[v] for w in adj[v]] for v in kept]
    return child, kept


def cut_validate(adj: list[list[int]], v_prime, phi: dict[int, int]) -> str | None:
    """The direct validator as a loop over V' x [n]."""
    v_set = set(v_prime)
    all_v = set(range(len(adj)))
    if not v_set or not v_set < all_v:
        return "NotPartition"
    if 2 * len(v_set) != len(adj):
        return "UnequalHalves"
    if set(phi.keys()) != v_set or set(phi.values()) != all_v - v_set:
        return "NotIsomorphism"
    for v in v_set:
        pv = phi[v]
        for a, b in zip(adj[v], adj[pv]):
            if phi[a if a in v_set else v] != (pv if b in v_set else b):
                return "NotIsomorphism"
    return None


def down(num_vertices: int, from_child: list[int], phi: dict[int, int]) -> list[int]:
    out = [0] * num_vertices
    for vc, v in enumerate(from_child):
        out[v] = out[phi[v]] = vc
    return out


def fold_plan(parent_adj, child_adj, n: int, from_child: list[int],
              phi: dict[int, int]) -> list[tuple[int, int]]:
    parent_class_of = classes(parent_adj, n)[0]
    plan = []
    for vc, l in classes(child_adj, n)[1]:
        v = from_child[vc]
        plan.append((parent_class_of[v * n + l], parent_class_of[phi[v] * n + l]))
    return plan


def fold(plan: list[tuple[int, int]], values: list[int], alpha: int, p: int) -> list[int]:
    """The list fold: child class c takes values[a] + alpha * values[b] mod p
    for the parent pair (a, b) = plan[c]."""
    return [(values[a] + alpha * values[b]) % p for a, b in plan]


def cut_word_on(plan: list[tuple[int, int]], values: list[int]) -> list[int]:
    """The restriction to a prepared cut: each child class takes the value
    of the first class of its pair."""
    return [values[a] for a, _ in plan]


def cut_word(adj: list[list[int]], n: int, values: list[int], vertices) -> list[int]:
    """The restriction to a vertex set: each child class takes the value of
    the parent class of its representative slot."""
    child, kept = cut_graph(adj, vertices)
    parent_class_of = classes(adj, n)[0]
    return [values[parent_class_of[kept[vc] * n + l]] for vc, l in classes(child, n)[1]]


def index_word(adj: list[list[int]], n: int, y: list[int], p: int) -> list[int]:
    """The word f(v, l) = y[l] mod p, class by class."""
    return [y[l] % p for _, l in classes(adj, n)[1]]


def cayley_adj(r: int, vectors) -> list[list[int]]:
    return [[v ^ s for s in vectors] for v in range(1 << r)]


def horner(coeffs, x: int, p: int) -> int:
    """The polynomial with coefficients low-degree first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def parity_rows(points: list[int], k: int, p: int) -> list[list[int]]:
    """Rows (u_i x_i^j)_i for j < n - k, u_i = 1 / prod_{j != i} (x_i - x_j)."""
    row = []
    for i, xi in enumerate(points):
        d = 1
        for j, xj in enumerate(points):
            if j != i:
                d = d * (xi - xj) % p
        row.append(pow(d, p - 2, p))
    rows = []
    for _ in range(len(points) - k):
        rows.append(row)
        row = [u * x % p for u, x in zip(row, points)]
    return rows


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return rows, pivots


def merkle_leaf(bucket: int, values) -> bytes:
    return hashlib.sha256(b"\x00" + struct.pack(f"<Q{len(values)}Q", bucket, *values)).digest()


def merkle_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def merkle_layers(values: list[int], width: int) -> list[list[bytes]]:
    """Every layer of the Merkle tree over values with `width` classes per
    leaf, leaves first: leaf j hashes j and values[width*j : width*(j+1)],
    the leaf layer is padded with zero digests to a power of two."""
    leaves = [merkle_leaf(j, values[i:i + width])
              for j, i in enumerate(range(0, len(values), width))]
    size = 1
    while size < len(leaves):
        size *= 2
    layers = [leaves + [bytes(32)] * (size - len(leaves))]
    while len(layers[-1]) > 1:
        prev = layers[-1]
        layers.append([merkle_node(prev[i], prev[i + 1]) for i in range(0, len(prev), 2)])
    return layers


def verify_open(root: bytes, bucket: int, values, path: list[bytes], num_classes: int,
                width: int) -> bool:
    """The per-path check: the full sibling path authenticates the values of
    one bucket under the root of a tree over num_classes values with
    `width` classes per leaf.  The bucket must hold exactly its classes and
    the path must have exactly that tree's depth."""
    leaves = -(-num_classes // width)
    depth = 0
    while 1 << depth < leaves:
        depth += 1
    if (not 0 <= bucket < leaves
            or len(values) != min(width, num_classes - width * bucket)
            or len(path) != depth):
        return False
    node = merkle_leaf(bucket, values)
    for d, sibling in enumerate(path):
        node = merkle_node(sibling, node) if bucket >> d & 1 else merkle_node(node, sibling)
    return node == root
