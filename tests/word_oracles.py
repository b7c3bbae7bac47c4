"""Word-by-word dict computations that the batched kernels are tested
against, shared by the test modules."""

from crpencils.tensors import letter_images


def derivation(X, t):
    """sum over slots of X applied to the letter in that slot, word by word."""
    images = letter_images(X)
    out = {}
    for w, c in t.items():
        for s, a in enumerate(w):
            for b, x in images.get(a, ()):
                nw = w[:s] + (b,) + w[s + 1:]
                out[nw] = out.get(nw, 0) + c * x
    return {w: c for w, c in out.items() if c}
