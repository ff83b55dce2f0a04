"""Golden findings for every analyzer fixture in ``tests/fixtures/``.

The per-rule fixture tests only assert that a rule fires somewhere.
This file pins *where* and *what*: the exact sorted
``(rule, line, col, message)`` list each front end reports for each
fixture file — simlint (all rules, with the single-module taint pass)
on ``sim*.py`` and ``taint_caller.py``, the hot-path analyzer on
``perf*.py`` and the shared-state auditor on ``race*.py`` — plus the
note sites and write/root census the auditor's scanners recover from
each ``race*.py`` fixture.  A refactor of ``repro.check`` must leave
every entry unchanged.
"""

import ast
import glob
import os

import pytest

from repro.check import RULES, audit_source, lint_source, perf_lint_source
from repro.check.cell_registry import extract_note_sites
from repro.check.cells import audit_files

from .test_simlint import BAD_FIXTURES

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

FRONT_ENDS = (
    ("sim*.py", lint_source),
    ("taint_caller.py", lint_source),
    ("perf*.py", perf_lint_source),
    ("race*.py", audit_source),
)


def _findings(name, lint):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        source = fh.read()
    return sorted(
        (v.rule, v.line, v.col, v.message)
        for v in lint(source, path=f"fixtures/{name}")
    )


def _fixture_names():
    return [
        (os.path.basename(path), lint)
        for pattern, lint in FRONT_ENDS
        for path in sorted(glob.glob(os.path.join(FIXTURES, pattern)))
    ]


GOLDEN = {
    'sim010_bad.py': [
        ('SIM004', 12, 15,
         'iterating an unordered set; order feeds scheduling/RNG — '
         'iterate sorted(...) or keep an ordered structure'),
        ('SIM004', 14, 39,
         'iterating an unordered set; order feeds scheduling/RNG — '
         'iterate sorted(...) or keep an ordered structure'),
        ('SIM010', 13, 8,
         'event scheduling from iteration over an unordered set; the '
         "trigger/callback/spawn order becomes the set's hash order, "
         'which is exactly the heap insertion sequence the kernel '
         'ties on — iterate sorted(...) or keep an ordered structure'),
        ('SIM010', 14, 15,
         'event scheduling from iteration over an unordered set; the '
         "trigger/callback/spawn order becomes the set's hash order, "
         'which is exactly the heap insertion sequence the kernel '
         'ties on — iterate sorted(...) or keep an ordered structure'),
    ],
    'sim010_good.py': [],
    'sim012_bad.py': [
        ('SIM012', 12, 27,
         'set stored in an attribute by one method and iterated in '
         'another; the container membership carries the unordered '
         'taint across methods, where sequential tracking loses it — '
         'iterate sorted(...) or keep an ordered structure '
         '(self._live is bound in reset())'),
    ],
    'sim012_good.py': [],
    'sim013_bad.py': [
        ('SIM013', 20, 16,
         "iterating the result of 'pick': pick (transitively) returns "
         'an unordered container, so hash order crosses the return '
         'boundary into this loop — return sorted(...) from the '
         'producer or sort at this call site'),
    ],
    'sim013_good.py': [],
    'sim014_bad.py': [
        ('SIM014', 20, 16,
         "iterating the result of 'relay': relay (transitively) "
         'yields from an unordered container, so hash order flows '
         'down the yield path into this loop — yield from sorted(...) '
         'in the producer or sort at this call site'),
    ],
    'sim014_good.py': [],
    'sim015_bad.py': [
        ('SIM015', 18, 22,
         'iterating a set stored as an element of a list/dict/tuple; '
         'the outer container is ordered but its elements carry the '
         'unordered taint, which name-based set tracking loses at the '
         'insertion — iterate sorted(elem) or store ordered elements '
         "(element of 'groups')"),
    ],
    'sim015_good.py': [],
    'sim016_bad.py': [
        ('SIM016', 21, 18,
         'iterating a set carried in a dataclass/namedtuple field; '
         'the record is ordered but the field value is not, and '
         'name-based set tracking loses the taint at construction — '
         'iterate sorted(rec.field) or store an ordered field '
         '(Row.members)'),
        ('SIM016', 24, 16,
         'iterating a set carried in a dataclass/namedtuple field; '
         'the record is ordered but the field value is not, and '
         'name-based set tracking loses the taint at construction — '
         'iterate sorted(rec.field) or store an ordered field '
         "(unpacked 'members')"),
    ],
    'sim016_good.py': [],
    'taint_caller.py': [],
    'perf101_bad.py': [
        ('PERF101', 15, 11,
         'instantiates slotless class Token (defined at '
         'fixtures/perf101_bad.py:9) [class churned on the sim hot '
         'path has no __slots__]'),
    ],
    'perf101_good.py': [],
    'perf102_bad.py': [
        ('PERF102', 8, 4,
         "nested def 'key' is created on every call [closure/lambda "
         'defined inside a hot function allocates a code object and '
         'cells per call]'),
    ],
    'perf102_good.py': [],
    'perf103_bad.py': [
        ('PERF103', 8, 11,
         'label built eagerly on every call (return position) [eager '
         'string/label construction on the sim hot path]'),
    ],
    'perf103_good.py': [],
    'perf104_bad.py': [
        ('PERF104', 10, 19,
         'conn.stats.reads dereferenced 2x in this loop [the same '
         'attribute chain is dereferenced repeatedly inside one loop]'),
    ],
    'perf104_good.py': [],
    'perf105_bad.py': [
        ('PERF105', 9, 19,
         '.pop(0) shifts the whole list; use collections.deque '
         '[O(n)-per-event container operation]'),
    ],
    'perf105_good.py': [],
    'race201_bad.py': [
        ('RACE201', 21, 8,
         'augment of self.total in Pool._worker() is reachable from 2 '
         'concurrent process instances (roots: Pool._worker) with no '
         'declared cell and no note_access in scope'),
    ],
    'race201_good.py': [],
    'race202_bad.py': [
        ('RACE202', 8, 0,
         "declared cell 'ledger.balance' (guarding _balance) is never "
         'write-noted anywhere in the file set — dead or stale '
         'declaration'),
    ],
    'race202_good.py': [],
    'race203_bad.py': [
        ('RACE203', 23, 8,
         'clear of self._items in Store.wipe() bypasses declared cell '
         "'store.items' — no note_access in scope, so the race "
         'sanitizer cannot see this mutation'),
    ],
    'race203_good.py': [],
    'race204_bad.py': [
        ('RACE204', 28, 8,
         "cell family 'pool.<…>.<…>' can collide with 'pool.<…>' "
         '(noted at fixtures/race204_bad.py:24) — two entities would '
         'share one cell'),
        ('RACE204', 32, 8,
         "cell family 'job.<…><…>' interpolates two entity ids with "
         'no separating literal — distinct id pairs can produce the '
         'same cell name'),
    ],
    'race204_good.py': [],
}

#: the inline per-rule snippets of ``test_simlint.BAD_FIXTURES``, pinned
#: by position (their messages are the fixture files' messages)
SNIPPET_GOLDEN = {
    'SIM001': [('SIM001', 4, 11)],
    'SIM002': [('SIM002', 3, 6)],
    'SIM003': [('SIM003', 2, 11)],
    'SIM004': [('SIM004', 4, 23)],
    'SIM005': [('SIM005', 2, 4)],
    'SIM006': [('SIM006', 2, 7)],
    'SIM007': [('SIM007', 4, 4)],
    'SIM008': [('SIM008', 4, 11)],
    'SIM009': [('SIM009', 4, 4)],
    'SIM010': [('SIM004', 4, 15), ('SIM010', 5, 8)],
    'SIM011': [('SIM001', 4, 11), ('SIM011', 7, 21)],
    'SIM012': [('SIM012', 3, 27)],
    'SIM013': [('SIM013', 5, 15)],
    'SIM014': [('SIM014', 5, 15)],
    'SIM015': [('SIM015', 8, 17)],
    'SIM016': [('SIM016', 8, 13)],
}


def test_every_fixture_is_pinned():
    assert sorted(name for name, _ in _fixture_names()) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "name,lint", _fixture_names(), ids=[n for n, _ in _fixture_names()]
)
def test_fixture_findings(name, lint):
    assert _findings(name, lint) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.startswith("sim")))
def test_rule_subset_reports_its_share(name):
    """A ``rules=`` subset run reports exactly the full run's findings
    for those rules: precedence between rules never depends on which
    rules were selected."""
    full = GOLDEN[name]
    for rule in sorted(RULES):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            source = fh.read()
        got = sorted(
            (v.rule, v.line, v.col, v.message)
            for v in lint_source(source, path=f"fixtures/{name}", rules={rule})
        )
        assert got == [f for f in full if f[0] == rule], rule


@pytest.mark.parametrize("rule", sorted(SNIPPET_GOLDEN))
def test_snippet_findings(rule):
    got = [
        (v.rule, v.line, v.col)
        for v in lint_source(BAD_FIXTURES[rule], path="mod.py", scope="sim")
    ]
    assert got == SNIPPET_GOLDEN[rule]


# ---------------------------------------------------------------------------
# Set-order drift: simlint and the taint pass once kept separate copies of
# the set tracking, and the copies disagreed.  Both now share one binding
# tracker and one set-annotation predicate; these cases pin the unified
# behaviour.
# ---------------------------------------------------------------------------

CORE_PATH = "src/repro/core/mod.py"


def _located(source):
    return [(v.rule, v.line, v.col) for v in lint_source(source, path=CORE_PATH)]


def test_drift_annotated_rebind_clears_the_set_everywhere():
    # a non-set annotated rebinding clears the set for the per-function
    # rules and the taint pass alike: no SIM004 in the helper and no
    # SIM011 at its caller
    src = (
        "def helper():\n"
        "    s = {'a'}\n"
        "    s: list = sorted(s)\n"
        "    for x in s:\n"
        "        print(x)\n\n"
        "def caller():\n"
        "    helper()\n"
    )
    assert _located(src) == []


def test_drift_dotted_and_string_set_annotations():
    # typing.Set[...] and string annotations bind a set for SIM004, for
    # SIM012's class-wide attributes and for the taint sources
    src = (
        "import typing\n\n"
        "def make():\n"
        "    return []\n\n"
        "def drain():\n"
        "    s: typing.Set[str] = make()\n"
        "    for x in s:\n"
        "        print(x)\n\n"
        "class Tracker:\n"
        "    def order(self):\n"
        "        return [x for x in self._live]\n"
        "    def reset(self):\n"
        "        self._live: 'typing.Set[str]' = make()\n\n"
        "def user():\n"
        "    drain()\n"
    )
    assert _located(src) == [
        ("SIM004", 8, 13),
        ("SIM012", 13, 27),
        ("SIM011", 18, 4),
    ]


# ---------------------------------------------------------------------------
# The auditor's scanners: the note sites ``extract_note_sites`` recovers
# from each race fixture, as ``(function, mode, rendered shapes,
# forwarded)`` rows, and the ``(n_roots, n_writes)`` census the audit
# reports for it.
# ---------------------------------------------------------------------------

NOTE_SITE_GOLDEN = {
    'race201_bad.py': ([], (1, 1)),
    'race201_good.py': (
        [('Pool._worker', 'w', ('pool.total',), False)], (1, 1),
    ),
    'race202_bad.py': (
        [('Ledger.preview', 'r', ('ledger.balance',), False)], (0, 0),
    ),
    'race202_good.py': (
        [
            ('Ledger.preview', 'r', ('ledger.balance',), False),
            ('Ledger.deposit', 'w', ('ledger.balance',), False),
        ],
        (0, 1),
    ),
    'race203_bad.py': (
        [('Store.put', 'w', ('store.items',), False)], (0, 2),
    ),
    'race203_good.py': (
        [
            ('Store.put', 'w', ('store.items',), False),
            ('Store.wipe', 'w', ('store.items',), False),
        ],
        (0, 2),
    ),
    'race204_bad.py': (
        [
            ('Board.claim', 'w', ('pool.<…>',), False),
            ('Board.subclaim', 'w', ('pool.<…>.<…>',), False),
            ('Board.enqueue', 'w', ('job.<…><…>',), False),
        ],
        (0, 3),
    ),
    'race204_good.py': (
        [
            ('Board.claim', 'w', ('pool.slot.<…>',), False),
            ('Board.subclaim', 'w', ('pool.sub.<…>.<…>',), False),
            ('Board.enqueue', 'w', ('job.t<…>.n<…>',), False),
        ],
        (0, 3),
    ),
}


def test_every_race_fixture_has_note_sites_pinned():
    names = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "race*.py"))
    )
    assert names == sorted(NOTE_SITE_GOLDEN)


@pytest.mark.parametrize("name", sorted(NOTE_SITE_GOLDEN))
def test_note_sites_and_audit_census(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        source = fh.read()
    path = f"fixtures/{name}"
    rows = [
        (s.func, s.mode, tuple(sh.render() for sh in s.shapes), s.forwarded)
        for s in extract_note_sites([(path, ast.parse(source))])
    ]
    audit = audit_files([(path, source)])
    assert (rows, (audit.n_roots, audit.n_writes)) == NOTE_SITE_GOLDEN[name]
