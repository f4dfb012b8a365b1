"""Seeded populations and request streams.

Everything here is a pure function of the seed: the stores are seeded
from these populations, the client sends these requests, and each request
carries its expected :class:`~resinbench.oracle.Verdict`.  The program
under test sees only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .oracle import Verdict, html_escaped

_WORDS = (
    "flow assertion policy taint channel filter export buffer review paper "
    "conference author anonymous sanitize query plan index ledger durable "
    "snapshot request principal access boundary runtime object string merge "
    "range label check deny allow persist column table forum topic message"
).split()

#: Fragments with HTML metacharacters mixed into forum bodies.
_HTML_BITS = (
    "<b>bold</b>",
    "a & b",
    '"quoted"',
    "it's",
    "<script>alert(1)</script>",
    "x < y > z",
    "<a href='#'>link</a>",
)


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def _tag(rng: random.Random) -> str:
    return "%08x" % rng.getrandbits(32)


class _Deck:
    """Draws from ``items`` without replacement, reshuffling when empty.

    Every run then sees each item in the same proportion whatever the
    seed, which keeps the per-run work, and so the figures, steady across
    seeds; the seed only changes the order.
    """

    def __init__(self, rng: random.Random, items):
        self._rng, self._items, self._left = rng, list(items), []

    def draw(self):
        if not self._left:
            self._left = self._items[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


@dataclass
class Request:
    """One generated request and its expected verdict."""

    kind: str  # "read", "write" or "feed" (the RSS feed)
    method: str
    path: str
    user: str
    verdict: Verdict
    form: Optional[Dict[str, str]] = None
    #: For writes: the post this request creates (checked after the run).
    post: Optional["Post"] = None


# -- HotCRP -----------------------------------------------------------------


@dataclass
class Paper:
    pid: int
    title: str
    abstract: str
    authors: Tuple[str, ...]
    anonymous: bool
    referee: str
    review: str
    released: bool

    @property
    def author_field(self) -> str:
        return ", ".join(self.authors)


@dataclass
class HotCRPPopulation:
    pcs: List[str]
    chair: str
    authors: List[str]
    papers: List[Paper]


#: Papers in the ``hotcrp-read`` store: distinct query texts (one per
#: user, two per paper) and stored policy blobs (four per paper, one per
#: user) then outnumber the program's 1024-entry caches.
PAPERS = 400
#: PC members (an assumption with no source, as are the author counts).
PC_MEMBERS = 30


def hotcrp_population(seed: int) -> HotCRPPopulation:
    """PC members, a chair, authors and papers with one review each.

    Each paper has one to three authors drawn from ``1.25 * PAPERS``, is
    anonymous with probability 1/2 and has its review released with
    probability 1/2.
    """
    rng = random.Random(f"hotcrp-population-{seed}")
    tag = _tag(rng)
    pcs = [f"pc{i}.{tag}@example.org" for i in range(PC_MEMBERS)]
    chair = f"chair.{tag}@example.org"
    authors = [f"author{i}.{tag}@example.org" for i in range(PAPERS + PAPERS // 4)]
    ids = sorted(rng.sample(range(1, 10 * PAPERS), PAPERS))
    out = []
    for pid in ids:
        out.append(
            Paper(
                pid=pid,
                title=f"On {_words(rng, 4)} t{pid}x{_tag(rng)}",
                abstract=f"{_words(rng, rng.randint(20, 60))} abs{pid}x{_tag(rng)}.",
                authors=tuple(rng.sample(authors, rng.randint(1, 3))),
                anonymous=rng.random() < 0.5,
                referee=rng.choice(pcs),
                review=f"{_words(rng, rng.randint(10, 40))} rev{pid}x{_tag(rng)}.",
                released=rng.random() < 0.5,
            )
        )
    return HotCRPPopulation(pcs=pcs, chair=chair, authors=authors, papers=out)


def _paper_verdict(pop: HotCRPPopulation, paper: Paper, user: str) -> Verdict:
    canary = paper.abstract.split()[-1]
    if user in pop.pcs:
        if paper.anonymous:
            return Verdict(
                200,
                contains=(paper.title, canary, "Anonymous"),
                never=paper.authors,
                denial=True,
            )
        return Verdict(200, contains=(paper.title, canary, paper.author_field))
    if user == pop.chair or user in paper.authors:
        return Verdict(200, contains=(paper.title, canary, paper.author_field))
    return Verdict(403, never=(paper.title, canary), denial=True)


def _review_verdict(pop: HotCRPPopulation, paper: Paper, user: str) -> Verdict:
    if user in pop.pcs or user == pop.chair:
        return Verdict(200, contains=(paper.review,))
    if user in paper.authors and paper.released:
        return Verdict(200, contains=(paper.review,))
    return Verdict(200, contains=("hidden",), never=(paper.review,), denial=True)


class HotCRPStream:
    """Requests of one simulated browser on ``hotcrp-read``.

    Each request picks a paper, a route (page or reviews, one half each)
    and a principal: a PC member, the chair, one of the paper's authors or
    an author of other papers, one quarter each.  That makes 3/8 of
    requests designed denials: 403s, anonymous author lists and hidden
    reviews.
    """

    def __init__(self, pop: HotCRPPopulation, seed: int, conn: int):
        self.pop = pop
        self.rng = rng = random.Random(f"hotcrp-stream-{seed}-{conn}")
        self._papers = _Deck(rng, pop.papers)
        self._roles = _Deck(rng, "pcao")
        self._routes = _Deck(rng, ("page", "reviews"))

    def next(self) -> Request:
        rng, pop = self.rng, self.pop
        paper = self._papers.draw()
        role = self._roles.draw()
        if role == "p":
            user = rng.choice(pop.pcs)
        elif role == "c":
            user = pop.chair
        elif role == "a":
            user = rng.choice(paper.authors)
        else:
            user = rng.choice(pop.authors)
            while user in paper.authors:
                user = rng.choice(pop.authors)
        if self._routes.draw() == "page":
            path = f"/paper/{paper.pid}"
            verdict = _paper_verdict(pop, paper, user)
        else:
            path = f"/paper/{paper.pid}/reviews"
            verdict = _review_verdict(pop, paper, user)
        return Request("read", "GET", path, user, verdict)

    def acknowledge(self, request: Request, ok: bool) -> None:
        """Nothing to remember: the stream is read-only."""


def hotcrp_probe(pop: HotCRPPopulation) -> Request:
    """The fixed request whose first correct answer ends a restart."""
    paper = pop.papers[0]
    return Request(
        "read",
        "GET",
        f"/paper/{paper.pid}",
        pop.chair,
        _paper_verdict(pop, paper, pop.chair),
    )


# -- phpBB ------------------------------------------------------------------


@dataclass
class Forum:
    fid: int
    name: str
    #: ``None`` for a public forum.
    members: Optional[Tuple[str, ...]]


@dataclass
class Post:
    msg_id: int
    forum: Forum
    author: str
    subject: str
    body: str

    @property
    def private(self) -> bool:
        return self.forum.members is not None

    @property
    def canary(self) -> str:
        return f"msg{self.msg_id}c"


@dataclass
class PhpBBPopulation:
    users: List[str]
    moderator: str
    forums: List[Forum]
    posts: List[Post] = field(default_factory=list)


#: Body lengths are uniform on this range of characters.
MIN_BODY, MAX_BODY = 20, 2000


def _lengths(count: int) -> List[int]:
    """``count`` evenly spaced body lengths over ``MIN_BODY..MAX_BODY``."""
    span = MAX_BODY - MIN_BODY
    return [MIN_BODY + round(span * (i + 0.5) / count) for i in range(count)]


def _body(rng: random.Random, msg_id: int, target: int) -> str:
    parts = [f"msg{msg_id}c"]
    size = len(parts[0])
    while size < target:
        # Every seventh piece carries HTML metacharacters.
        bits = _HTML_BITS if len(parts) % 7 == 3 else _WORDS
        piece = rng.choice(bits)
        parts.append(piece)
        size += len(piece) + 1
    return " ".join(parts)


def _post(rng: random.Random, msg_id: int, forum: Forum, users, length: int) -> Post:
    author = rng.choice(forum.members if forum.members else users)
    subject = f"Topic {msg_id} {_words(rng, 3)}"
    return Post(msg_id, forum, author, subject, _body(rng, msg_id, length))


#: Posts in the seeded ``phpbb-mix`` store.
MESSAGES = 300


def phpbb_population(seed: int) -> PhpBBPopulation:
    """Six public and four private forums, forty members, a moderator who
    belongs to every private forum, and ``MESSAGES`` seeded posts."""
    rng = random.Random(f"phpbb-population-{seed}")
    tag = _tag(rng)
    users = [f"user{i}.{tag}@example.org" for i in range(40)]
    moderator = f"mod.{tag}@example.org"
    forums = []
    for fid in range(1, 11):
        if fid <= 6:
            members = None
        else:
            members = tuple(sorted(rng.sample(users, 8))) + (moderator,)
        forums.append(Forum(fid, f"Forum {fid} {_words(rng, 2)}", members))
    pop = PhpBBPopulation(users=users, moderator=moderator, forums=forums)
    # Each run of ten consecutive lengths lands once in every forum, so
    # public and private posts have the same length mix whatever the seed.
    placed = []
    deck = _Deck(rng, forums)
    for length in _lengths(MESSAGES):
        placed.append((deck.draw(), length))
    rng.shuffle(placed)
    for msg_id, (forum, length) in enumerate(placed, start=1):
        pop.posts.append(_post(rng, msg_id, forum, users, length))
    return pop


def _topic_verdict(post: Post, user: str) -> Verdict:
    if post.private and user not in post.forum.members:
        return Verdict(403, never=(post.canary,), denial=True)
    return Verdict(200, contains=(html_escaped(post.body),))


class PhpBBStream:
    """Requests of one simulated browser on ``phpbb-mix``.

    Of every 50 requests 17 are ``POST /topic`` into a forum drawn evenly
    from all ten, one is the moderator's ``GET /rss`` (kind ``feed``) and
    32 are ``GET /topic/<id>``.  Of every four reads three are of a seeded
    post (each seeded post once before any twice) and one is of this
    browser's newest acknowledged post.  A public post is read by a user
    drawn evenly from all forty; a private one by a member one time in
    four and by a non-member, who expects 403, three times in four.
    """

    #: First message id of each connection's posts (connection-disjoint).
    ID_BASE = 1_000_000

    def __init__(self, pop: PhpBBPopulation, seed: int, conn: int):
        self.pop = pop
        self.rng = rng = random.Random(f"phpbb-stream-{seed}-{conn}")
        self._next_id = self.ID_BASE * (conn + 1)
        #: This browser's posts that were acknowledged with a 201.
        self.acked: List[Post] = []
        self._ops = _Deck(rng, "w" * 17 + "f" + "r" * 32)
        self._lengths = _Deck(rng, _lengths(64))
        self._forums = _Deck(rng, pop.forums)
        self._seeded = _Deck(rng, pop.posts)
        self._own = _Deck(rng, "sss" + "o")
        self._users = _Deck(rng, pop.users)
        self._member = _Deck(rng, "m" + "xxx")
        self._outsiders = {
            f.fid: [u for u in pop.users if u not in f.members]
            for f in pop.forums
            if f.members
        }

    def next(self) -> Request:
        rng, pop = self.rng, self.pop
        op = self._ops.draw()
        if op == "w":
            forum = self._forums.draw()
            post = _post(rng, self._next_id, forum, pop.users, self._lengths.draw())
            self._next_id += 1
            form = {
                "msg_id": str(post.msg_id),
                "forum_id": str(forum.fid),
                "subject": post.subject,
                "body": post.body,
            }
            verdict = Verdict(201, contains=("posted",))
            return Request("write", "POST", "/topic", post.author, verdict, form, post)
        if op == "f":
            verdict = Verdict(200, contains=("<rss>", "</rss>"))
            return Request("feed", "GET", "/rss", pop.moderator, verdict)
        if self._own.draw() == "o" and self.acked:
            post = self.acked[-1]
        else:
            post = self._seeded.draw()
        if not post.private:
            user = self._users.draw()
        elif self._member.draw() == "m":
            user = rng.choice(post.forum.members)
        else:
            user = rng.choice(self._outsiders[post.forum.fid])
        verdict = _topic_verdict(post, user)
        return Request("read", "GET", f"/topic/{post.msg_id}", user, verdict)

    def acknowledge(self, request: Request, ok: bool) -> None:
        if ok and request.post is not None:
            self.acked.append(request.post)


def phpbb_primer(pop: PhpBBPopulation) -> List[Request]:
    """One read of every seeded post by its author, sent before timing so
    that the program's caches hold what the timed reads of seeded posts
    need however far through the seeded posts a run gets."""
    return [
        Request(
            "read",
            "GET",
            f"/topic/{post.msg_id}",
            post.author,
            _topic_verdict(post, post.author),
        )
        for post in pop.posts
    ]


def phpbb_probe(pop: PhpBBPopulation) -> Request:
    post = next(p for p in pop.posts if not p.private)
    verdict = _topic_verdict(post, pop.moderator)
    return Request("read", "GET", f"/topic/{post.msg_id}", pop.moderator, verdict)


# -- paper page --------------------------------------------------------------

#: Papers seeded around the measured one on each paper-page site.
PAGE_POPULATION = 60


def paper_page_inputs(seed: int) -> dict:
    """The measured paper id and PC member for ``paper-page``; the
    population's own papers use ids 1000 and up."""
    rng = random.Random(f"paper-page-{seed}")
    return {
        "paper_id": rng.randint(1, 999),
        "pc_member": f"pc.{_tag(rng)}@example.org",
        "population": PAGE_POPULATION,
    }


#: What every paper-page render must show and hide (the workload's fixed
#: paper: an anonymous submission viewed by a PC member).
PAGE_VERDICT = Verdict(
    200,
    contains=("Improving Application Security with Data Flow Assertions", "Anonymous"),
    never=("author@example.org", "second@example.org"),
    denial=True,
)
