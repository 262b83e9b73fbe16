(** Allocation-free access to the stdlib LXM random stream.

    The integer-kernel generators (RMAT sampling, random edge weights)
    draw ~20 floats per sampled edge; the boxed intermediates of
    [Random.State.float] dominate million-edge builds.  [draw53] returns
    the raw 53-bit draw as an immediate int, consuming the underlying
    stream exactly like [Random.State.float st 1.0] — same
    [caml_lxm_next] calls, same zero-retry — so switching a loop between
    the two never changes what gets generated. *)

val active : unit -> bool
(** Whether [draw53] provably reproduces the stdlib stream on this
    runtime (verified once by replaying 512 draws against
    [Random.State.float] on a copied state). *)

val require : unit -> unit
(** Raises [Failure] naming the stdlib [rawfloat] change unless
    [active ()].  Every sampler calls it before drawing: there is no
    stdlib fallback path. *)

val draw53 : Random.State.t -> int
(** The 53-bit mantissa draw of [Random.State.float st 1.0]:
    [float_of_int (draw53 st) *. 0x1.p-53] is bit-identical to that call
    and advances [st] identically.  Nonzero, in [1, 2^53).  Only
    meaningful when [active ()] holds; see {!require}. *)
