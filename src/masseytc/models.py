"""Built-in example models.

Four models exercise every feature of the engine:

* ``spheres8`` -- two degree-3 classes with the product killed by a
  degree-5 generator, completed in dimension 8.  Both triple products
  <a,a,b> and <b,a,b> are nonzero with zero indeterminacy.
* ``borromean`` -- six degree-1 generators, the differential encoding the
  pairwise-trivial, globally nontrivial linking of three circles.  All cup
  products of degree-1 classes vanish, yet <u,v,w> and <u,w,v> survive.
* ``even7`` -- two degree-2 classes a, b with a^2, b^2, ab all killed;
  completed in dimension 7.  The triple products <a,a,b> and <b,b,a> carry
  weight 2, which pushes the sectional-category bounds past anything cup
  products alone can certify.
* ``odd11`` -- the degree-3 analogue of ``even7`` (same algebra as
  ``spheres8`` but completed in dimension 11, where a*z*b survives).

The truncation of ``even7`` sits one above its dimension: its degree-7
classes are quotients by boundaries from degree 6 whose differentials are
only visible in degree 8, so truncating at 7 would inflate the top
cohomology.  The junk degree-8 classes this introduces never meet any
reported invariant (all their products leave the truncation window).
"""

MODEL_SOURCES = {
    "spheres8": """\
algebra spheres8 {
  field Q
  truncate 8
  space-dim 8
  simply-connected true
  generator a degree 3
  generator b degree 3
  generator z degree 5
  d z = a*b
}
""",
    "borromean": """\
algebra borromean {
  field Q
  truncate 2
  space-dim 2
  simply-connected false
  generator x1 degree 1
  generator x2 degree 1
  generator x3 degree 1
  generator y1 degree 1
  generator y2 degree 1
  generator y3 degree 1
  d y1 = x2*x3
  d y2 = x3*x1
  d y3 = x1*x2
  alias u = x1
  alias v = x2
  alias w = x3
}
""",
    "even7": """\
algebra even7 {
  field Q
  truncate 8
  space-dim 7
  simply-connected true
  generator a degree 2
  generator b degree 2
  generator x degree 3
  generator y degree 3
  generator z degree 3
  d x = a*a
  d y = b*b
  d z = a*b
  alias alpha = a
  alias beta = b
  alias u = a*z - x*b
  alias v = b*z - y*a
  alias mu = a*b*z - y*a*a
}
""",
    "odd11": """\
algebra odd11 {
  field Q
  truncate 11
  space-dim 11
  simply-connected true
  generator a degree 3
  generator b degree 3
  generator z degree 5
  d z = a*b
  alias alpha = a
  alias beta = b
  alias u = a*z
  alias v = z*b
  alias mu = a*z*b
}
""",
}
