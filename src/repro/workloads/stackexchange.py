"""Synthetic StackExchange posts (the AnswersCount benchmark input).

The real benchmark consumes the StackExchange data-dump ``Posts`` table in
line-oriented text form, where each row is a post: ``PostTypeId == 1`` marks
a question and ``PostTypeId == 2`` an answer carrying its question's id in
``ParentId``.  AnswersCount computes the *average number of answers per
question* over the dump.

This generator reproduces that structure deterministically:

* post ``i`` is a question with probability ``1 / (1 + answers_per_question)``
  (interleaved deterministically, no RNG state to carry);
* every answer references an earlier question, with a skew towards popular
  questions (some questions attract many answers — real dumps are heavily
  skewed);
* a filler body pads records to a realistic bytes/record, so that the
  benchmark's bytes-scanned-per-record matches a text dump's.

The exact expected average for a generated file is computable in closed
form from the same deterministic rules (:func:`expected_average_answers`),
which the tests use to validate every framework implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.fs.content import LineContent
from repro.spark.partitioner import stable_hash

POST_QUESTION = 1
POST_ANSWER = 2

#: filler text used to pad records to ``bytes_per_record``
_FILLER = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua "
)


@dataclass(frozen=True)
class StackExchangeSpec:
    """Shape of a synthetic posts file.

    ``answers_per_question`` is the *structural* ratio: out of every
    ``answers_per_question + 1`` posts, one is a question.  The measured
    average answers/question equals exactly this value.
    """

    n_posts: int = 100_000
    answers_per_question: int = 4
    bytes_per_record: int = 220  # typical Posts row after field trimming

    @property
    def cycle(self) -> int:
        return self.answers_per_question + 1

    def n_questions(self) -> int:
        """Questions among the first ``n_posts`` posts (post 0 is one)."""
        return -(-self.n_posts // self.cycle)

    def n_answers(self) -> int:
        return self.n_posts - self.n_questions()


def se_line(spec: StackExchangeSpec, i: int) -> str:
    """Post ``i`` as a text row: ``id,type,parent_or_empty,score,body``."""
    cycle = spec.cycle
    if i % cycle == 0:
        ptype, parent = POST_QUESTION, ""
    else:
        ptype = POST_ANSWER
        # answers attach to an earlier question; skew via hashing so some
        # questions collect many answers, like real dumps
        q_count = i // cycle + 1  # questions with index*cycle <= i
        parent = str((stable_hash(("se", i)) % q_count) * cycle)
    head = f"{i},{ptype},{parent},{stable_hash(('score', i)) % 100},"
    pad = spec.bytes_per_record - len(head) - 1
    body = (_FILLER * (pad // len(_FILLER) + 1))[: max(0, pad)]
    return head + body


@lru_cache(maxsize=8)
def stackexchange_content(spec: StackExchangeSpec) -> LineContent:
    """The physical payload for a spec (host-side, memoised per spec).

    Specs are frozen/hashable and content is a pure function of the spec,
    so figure sweeps that rebuild clusters share one payload instead of
    re-rendering every post per cluster size.
    """
    return LineContent(lambda i: se_line(spec, i), spec.n_posts)


def parse_post(line: str) -> tuple[int, int, int | None]:
    """``(post_id, post_type, parent_id_or_None)`` of one row.

    Raises ``ValueError`` on malformed rows, like a strict parser would —
    the generated data never triggers it, but framework tests inject
    garbage to check error propagation.
    """
    parts = line.split(",", 4)
    if len(parts) < 5:
        raise ValueError(f"malformed post row: {line[:50]!r}")
    post_id = int(parts[0])
    ptype = int(parts[1])
    parent = int(parts[2]) if parts[2] else None
    return post_id, ptype, parent


def expected_average_answers(spec: StackExchangeSpec) -> float:
    """Closed-form expected benchmark result for a generated file."""
    q = spec.n_questions()
    return spec.n_answers() / q if q else 0.0


def reference_answers_count(lines: list[str]) -> float:
    """Sequential reference implementation of AnswersCount.

    Average number of answers per question = answers / questions.  All
    framework implementations (OpenMP, MPI, Spark, Hadoop) are validated
    against this.
    """
    questions = 0
    answers = 0
    for line in lines:
        _pid, ptype, _parent = parse_post(line)
        if ptype == POST_QUESTION:
            questions += 1
        elif ptype == POST_ANSWER:
            answers += 1
    return answers / questions if questions else 0.0
