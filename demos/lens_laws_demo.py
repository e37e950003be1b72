"""
What makes a lens lawful, and what catching an unlawful one looks like
======================================================================

A lens is one forward run: ``run(x)`` gives the view of ``x`` and a
backward map that turns a new view into an updated ``x``; ``view`` and
``update`` read its two halves.  The three classic laws say updates
mean what they claim: put-get (you read back what you wrote), put-put
(writing twice is writing once), get-put (writing what's there changes
nothing).  ``check_laws`` samples them.
"""

import random

from lenserv import (
    Bool, BoolS, DepLens, IntS, List, ListS, ProdS, TextS, check_laws,
    compose, const_of, fst_lens, snd_lens,
)

# a nested record: (name, (address, birthdate)) with address = (city, zip)
address = ProdS(TextS(), IntS())
user = ProdS(TextS(), ProdS(address, TextS()))

address_of = compose(snd_lens(user), fst_lens(ProdS(address, TextS())))
zip_of = compose(address_of, snd_lens(address))

for name, lens in [("address_of", address_of), ("zip_of", zip_of)]:
    report = check_laws(lens, n=1000, rng=random.Random(1))
    print(f"{name:<12} {report}")

# Now a fraud: "update" that appends to a list.  It type-checks as a
# lens, but appending twice isn't appending once, so put-put must fail.
append = DepLens(
    const_of(ListS(BoolS())),
    const_of(BoolS()),
    view=lambda xs: xs.items[-1] if xs.items else Bool(False),
    update=lambda xs, v: List(xs.items + (v,)),
)

report = check_laws(append, n=200, rng=random.Random(2))
print(f"{'append':<12} {report}")
x, v = report.put_put
print(f"  witness: x={x} v={v}")
print(f"  update once : {append.update(x, v)}")
print(f"  update twice: {append.update(append.update(x, v), v)}")
