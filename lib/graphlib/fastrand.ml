(* Allocation-free access to the stdlib LXM random stream (DESIGN.md §15).

   [Random.State.float st 1.0] costs several minor-heap allocations per
   draw without flambda: the boxed Int64 intermediates of [rawfloat] and
   the boxed float result.  At RMAT scale that is the dominant cost of
   graph generation — 20 draws per sampled edge, ~1.7e8 draws for the S1
   rmat-s20-ef8 build, all boxed.

   The stdlib's own primitive is an unboxed [@@noalloc] external
   ([caml_lxm_next], OCaml >= 5.0), so we re-declare it here and fold the
   exact [rawfloat] post-processing (shift, zero-retry) into [draw53],
   which returns the 53-bit mantissa as an immediate int — zero
   allocations end to end.  Callers reconstruct the float locally with
   [float_of_int d *. 0x1.p-53], which ocamlopt keeps unboxed inside a
   loop body.

   Exactness contract: [float_of_int (draw53 st) *. 0x1.p-53] must be
   bit-identical to [Random.State.float st 1.0] AND consume the stream
   identically (one [caml_lxm_next] per retry, retrying while the
   53-bit value is zero).  Both operations are exact: the shifted draw is
   an integer below 2^53, so [float_of_int] is lossless, and scaling by a
   power of two only adjusts the exponent.  [verify] replays 512 draws
   against the stdlib on a copied state, once, the first time a sampler
   calls [require]; if a future stdlib changes [rawfloat], [require]
   raises and names that change — there is no slower fallback path that
   could quietly take over.  (If the runtime ever drops the primitive
   itself, the build fails at link time — loudly, not wrongly.) *)

external lxm_next : Random.State.t -> (int64[@unboxed])
  = "caml_lxm_next" "caml_lxm_next_unboxed"
[@@noalloc]

let rec draw53 st =
  let d = Int64.to_int (Int64.shift_right_logical (lxm_next st) 11) in
  if d = 0 then draw53 st else d

let verify () =
  let a = Random.State.make [| 0x5EED; 0xFA57 |] in
  let b = Random.State.copy a in
  let ok = ref true in
  for _ = 1 to 512 do
    let reference = Random.State.float a 1.0 in
    let fast = float_of_int (draw53 b) *. 0x1.p-53 in
    if not (Float.equal reference fast) then ok := false
  done;
  !ok

let active_v = lazy (verify ())
let active () = Lazy.force active_v

let require () =
  if not (active ()) then
    failwith
      "Fastrand: draw53 no longer replays Random.State.float 1.0 — the \
       stdlib's rawfloat changed; update draw53 to match it"
