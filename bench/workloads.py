"""The benchmark's workloads: inputs, the timed job, and the checks on its answers.

Every workload has three steps.  `prepare(seed)` builds the inputs and runs
before the first timed call.  `run(inputs)` is the timed job; it returns
one (latency in seconds, answer) pair per operation, where an operation
that raised has the exception as its answer.  `check(inputs, outcomes)`
runs after the timed region and returns one message per failed operation.

Three workloads drive the command line in-process, as `cli.main([...,
"--format", "json"])` with stdout captured, and read only `result` from the
envelope.  `query-mix` issues library calls.  Its checks use facts that hold
whatever code computed the answer: hook-length dimensions, column
orthogonality of the character table, and symmetries.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from math import factorial
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
GOLDEN_FILE = BENCH / "golden.json"
FACTOR_SERIES_FILE = BENCH / "series-2x2-d16.json"


# --- Partition facts computed here, independently of the package -----------


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with parts at most `largest`, in reverse-lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


def conjugate(p):
    return tuple(sum(1 for part in p if part > i) for i in range(p[0])) if p else ()


def hook_dimension(p) -> int:
    conj = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(p)) // hooks


def centralizer_order(cycle_type) -> int:
    z = 1
    for size in set(cycle_type):
        mult = cycle_type.count(size)
        z *= size**mult * factorial(mult)
    return z


def sign(cycle_type) -> int:
    return -1 if (sum(cycle_type) - len(cycle_type)) % 2 else 1


def calibrate(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python task that uses none of the package.

    The task's time tracks how fast the machine runs Python at the moment,
    which on a shared host drifts by tens of percent within a minute.
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        table = {}
        for n in range(13, 18):
            for p in partitions(n):
                table[p] = hook_dimension(p) + centralizer_order(p) * sign(p)
        times.append(perf_counter() - start)
    return sorted(times)[repeats // 2]


# --- Command-line workloads -----------------------------------------------------


class CliWorkload:
    """One `invcensus` command with fixed arguments; the seed is not used.

    check_result(result, golden, argv) returns a message when the envelope's
    `result` is wrong, where golden is this workload's entry in golden.json.
    """

    def __init__(self, name, argv, check_result):
        self.name = name
        self.argv = argv
        self.check_result = check_result

    def prepare(self, seed: int):
        return [*self.argv, "--format", "json"]

    def run(self, argv):
        main = sys.modules["invcensus.cli"].main
        out = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out):
                code = main(argv)
            answer = (code, out.getvalue())
        except Exception as exc:  # an operation failure, reported by check()
            answer = exc
        return [(perf_counter() - start, answer)]

    def check(self, argv, outcomes) -> list[str]:
        golden = json.loads(GOLDEN_FILE.read_text())[self.name]
        failures = []
        for _, answer in outcomes:
            if isinstance(answer, Exception):
                failures.append(f"raised {answer!r}")
                continue
            code, text = answer
            if code != 0:
                failures.append(f"exit status {code}")
                continue
            try:
                result = json.loads(text)["result"]
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(f"unreadable envelope: {exc!r}")
                continue
            problem = self.check_result(result, golden, argv)
            if problem:
                failures.append(problem)
        return failures


def _check_series(result, golden, argv):
    """The counted series must be the golden one through the asked degree."""
    expected = golden[: int(argv[argv.index("--max-degree") + 1]) + 1]
    if result.get("coefficients") != expected:
        return f"coefficients {result.get('coefficients')} differ from golden {expected}"
    return None


def _check_factor(result, golden, argv):
    if result.get("candidate_count") != golden["candidate_count"]:
        return f"candidate_count {result.get('candidate_count')} != {golden['candidate_count']}"
    top = result["candidates"][0]
    for key in ("numerator_degrees", "denominator_degrees", "match_degree"):
        if top[key] != golden["top"][key]:
            return f"top candidate {key} {top[key]} != {golden['top'][key]}"
    factorizer = sys.modules["invcensus.factorizer"]
    target = json.loads(FACTOR_SERIES_FILE.read_text())["coefficients"]
    form = factorizer.RationalForm(
        tuple(top["numerator_degrees"]), tuple(top["denominator_degrees"])
    )
    expansion = list(factorizer.expand(form, len(target) - 1))
    through = top["match_degree"]
    if expansion[: through + 1] != target[: through + 1]:
        return f"re-expanded top form {expansion} differs from the target before degree {through}"
    return None


# --- Query mix ------------------------------------------------------------------

# (call, number of queries, degrees n drawn uniformly)
QUERY_MIX = (
    ("character", 500, range(10, 17)),
    ("kronecker_coefficient", 400, range(8, 13)),
    ("pair_weight", 300, range(8, 13)),
    ("inner_product_expansion", 200, range(8, 12)),
    ("char_table", 100, range(8, 14)),
)
PAIR_BOUNDS = (1, 4, 9)  # the census part bounds of 1xN, 2x2 and 3x3 systems


def query_stream(seed: int) -> list[tuple]:
    """The query-mix stream for a seed: a list of (call name, *arguments).

    Each query draws its degree, and the popularity rank of each partition
    argument, where rank r has weight 1/(r+1); so a few popular partitions
    recur and queries share work.  These draws are the same for every seed,
    so every stream asks for about the same amount of work.  The seed
    decides which partition of each degree holds each rank, and the order
    of the queries.
    """
    shape = random.Random(0)
    rng = random.Random(seed)
    popular = {}
    for n in range(8, 17):
        ranked = partitions(n)
        rng.shuffle(ranked)
        weights, total = [], 0.0
        for rank in range(len(ranked)):
            total += 1.0 / (rank + 1)
            weights.append(total)
        popular[n] = (ranked, weights)

    def draw(n):
        ranked, weights = popular[n]
        return shape.choices(ranked, cum_weights=weights)[0]

    stream = []
    for call, count, degrees in QUERY_MIX:
        for _ in range(count):
            n = shape.choice(degrees)
            if call == "character":
                stream.append((call, draw(n), draw(n)))
            elif call == "kronecker_coefficient":
                stream.append((call, draw(n), draw(n), draw(n)))
            elif call == "pair_weight":
                stream.append((call, draw(n), draw(n), shape.choice(PAIR_BOUNDS)))
            elif call == "inner_product_expansion":
                stream.append((call, draw(n), draw(n)))
            else:
                stream.append((call, n))
    rng.shuffle(stream)
    return stream


class QueryMix:
    """Point queries as library calls in one process; memos start cold."""

    def prepare(self, seed: int):
        return query_stream(seed)

    def run(self, stream):
        package = sys.modules["invcensus"]
        calls = {call: getattr(package, call) for call, _, _ in QUERY_MIX}
        outcomes = []
        for call, *args in stream:
            fn = calls[call]
            start = perf_counter()
            try:
                answer = fn(*args)
            except Exception as exc:  # an operation failure, reported by check()
                answer = exc
            outcomes.append((perf_counter() - start, answer))
        return outcomes

    def check(self, stream, outcomes) -> list[str]:
        package = sys.modules["invcensus"]
        verified = {}
        failures = []
        for query, (_, answer) in zip(stream, outcomes):
            if isinstance(answer, Exception):
                failures.append(f"{query} raised {answer!r}")
                continue
            if query[0] == "char_table":
                value = answer.values
            elif query[0] == "inner_product_expansion":
                value = dict(answer.terms)
            else:
                value = answer
            if query in verified:
                problem = None if verified[query] == value else "differs from an earlier answer"
            else:
                problem = _CHECKS[query[0]](package, *query[1:], answer)
                if problem is None:
                    verified[query] = value
            if problem:
                failures.append(f"{query}: {problem}")
        if len(outcomes) != len(stream):
            failures.append(f"{len(outcomes)} answers for {len(stream)} queries")
        return failures


def _check_character(lib, lam, rho, value):
    dim = hook_dimension(lam)
    if not isinstance(value, int) or abs(value) > dim:
        return f"value {value!r} outside [-{dim}, {dim}]"
    if rho == (1,) * sum(rho) and value != dim:
        return f"value at the identity {value} != hook-length dimension {dim}"
    twin = lib.character(conjugate(lam), rho)
    if twin != sign(rho) * value:
        return f"conjugate shape gives {twin}, expected {sign(rho) * value}"
    return None


def _check_kronecker(lib, lam, mu, nu, g):
    if not isinstance(g, int) or g < 0:
        return f"coefficient {g!r} is not a nonnegative integer"
    n = sum(lam)
    if nu == (n,) and g != (lam == mu):
        return f"g with the trivial irrep is {g}, expected {int(lam == mu)}"
    if nu == (1,) * n and g != (mu == conjugate(lam)):
        return f"g with the sign irrep is {g}, expected {int(mu == conjugate(lam))}"
    for perm in ((mu, lam, nu), (lam, nu, mu)):
        other = lib.kronecker_coefficient(*perm)
        if other != g:
            return f"not symmetric: g{perm} = {other}, g{(lam, mu, nu)} = {g}"
    return None


def _check_pair_weight(lib, lam, mu, bound, w):
    if not isinstance(w, int) or w < 0:
        return f"pair weight {w!r} is not a nonnegative integer"
    if bound == 1 and w != 1:
        return f"pair weight with one part allowed is {w}, expected 1"
    other = lib.pair_weight(mu, lam, bound)
    if other != w:
        return f"not symmetric: swapped arguments give {other}, expected {w}"
    return None


def _check_expansion(lib, lam, mu, expansion):
    n = sum(lam)
    terms = dict(expansion.terms)
    if expansion.weight != n or any(m <= 0 for m in terms.values()):
        return f"malformed expansion {expansion!r}"
    total = sum(m * hook_dimension(nu) for nu, m in terms.items())
    if total != hook_dimension(lam) * hook_dimension(mu):
        return f"sum of g * dim = {total}, expected dim * dim"
    if terms.get((n,), 0) != (lam == mu):
        return "wrong multiplicity of the trivial irrep"
    if terms.get((1,) * n, 0) != (mu == conjugate(lam)):
        return "wrong multiplicity of the sign irrep"
    return None


def _check_table(lib, n, table):
    parts = partitions(n)
    index = {p: i for i, p in enumerate(table.partitions)}
    if table.n != n or sorted(index) != sorted(parts) or len(table.values) != len(parts):
        return f"table labels do not list the partitions of {n}"
    rows = [table.values[index[lam]] for lam in parts]
    columns = [[row[index[rho]] for row in rows] for rho in parts]
    identity = columns[-1]  # the class 1^n is last in reverse-lexicographic order
    if identity != [hook_dimension(lam) for lam in parts]:
        return "the identity column differs from the hook-length dimensions"
    for i, (rho, left) in enumerate(zip(parts, columns)):
        for j in range(i, len(parts)):
            dot = sum(a * b for a, b in zip(left, columns[j]))
            if dot != (centralizer_order(rho) if i == j else 0):
                return f"columns {rho} and {parts[j]} are not orthogonal"
    return None


_CHECKS = {
    "character": _check_character,
    "kronecker_coefficient": _check_kronecker,
    "pair_weight": _check_pair_weight,
    "inner_product_expansion": _check_expansion,
    "char_table": _check_table,
}


WORKLOADS = {
    "census-2x2": CliWorkload(
        "census-2x2",
        ["census", "--n1", "2", "--n2", "2", "--max-degree", "16", "--degree-limit", "16"],
        _check_series,
    ),
    "molien-2x3": CliWorkload(
        "molien-2x3",
        ["molien", "--n1", "2", "--n2", "3", "--max-degree", "11", "--degree-limit", "11"],
        _check_series,
    ),
    "factor-2x2": CliWorkload(
        "factor-2x2",
        [
            "factor", "--series-file", str(FACTOR_SERIES_FILE), "--free-generators", "10",
            "--max-factor-degree", "10", "--limit", "10",
        ],
        _check_factor,
    ),
    "query-mix": QueryMix(),
}
