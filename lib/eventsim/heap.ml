(* Binary min-heap on (time, seq), in structure-of-arrays form: entry
   [i] is [ts.(i)], [qs.(i)], [ids.(i)], and the children of [i] are
   [2i+1] and [2i+2]. Both sifts move a hole instead of swapping: each
   level costs one copy of the triple, and the moving entry is written
   once, where it lands. Every store is a float or an int store, so no
   write barrier runs. The arrays only grow (by doubling); indices
   below [n] are always in bounds, hence the unchecked accesses. *)

type t = {
  mutable ts : float array;
  mutable qs : int array;
  mutable ids : int array;
  mutable n : int;
}

let create () = { ts = [||]; qs = [||]; ids = [||]; n = 0 }
let[@inline] is_empty t = t.n = 0
let[@inline] top_time t = Array.unsafe_get t.ts 0
let[@inline] top_seq t = Array.unsafe_get t.qs 0

let grow t =
  let cap = max 16 (2 * t.n) in
  let ts = Array.make cap 0.0 and qs = Array.make cap 0 in
  let ids = Array.make cap 0 in
  Array.blit t.ts 0 ts 0 t.n;
  Array.blit t.qs 0 qs 0 t.n;
  Array.blit t.ids 0 ids 0 t.n;
  t.ts <- ts;
  t.qs <- qs;
  t.ids <- ids

(* Entry [a] orders before the entry ([time], [seq]). *)
let[@inline] before t a time seq =
  let at = Array.unsafe_get t.ts a in
  at < time || (at = time && Array.unsafe_get t.qs a < seq)

(* Copy entry [src] into the hole at [dst]. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.ts dst (Array.unsafe_get t.ts src);
  Array.unsafe_set t.qs dst (Array.unsafe_get t.qs src);
  Array.unsafe_set t.ids dst (Array.unsafe_get t.ids src)

let[@inline] fill t i time seq id =
  Array.unsafe_set t.ts i time;
  Array.unsafe_set t.qs i seq;
  Array.unsafe_set t.ids i id

(* Sift the entry whose time [insert] left in [ts.(n)] up from the
   hole at [n]. Out of line, and no float crosses the call. *)
let sift_up t seq id =
  let time = Array.unsafe_get t.ts t.n in
  let i = ref t.n and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if before t p time seq then moving := false
    else begin
      move t ~src:p ~dst:!i;
      i := p
    end
  done;
  fill t !i time seq id;
  t.n <- t.n + 1

let[@inline] insert t ~time ~seq ~id =
  if t.n = Array.length t.ts then grow t;
  Array.unsafe_set t.ts t.n time;
  sift_up t seq id

let extract t =
  if t.n = 0 then invalid_arg "Heap.extract: empty heap";
  let top = Array.unsafe_get t.ids 0 in
  let n = t.n - 1 in
  t.n <- n;
  (* Refill the hole at the root with the last entry, sifting down. *)
  let time = Array.unsafe_get t.ts n and seq = Array.unsafe_get t.qs n in
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let c =
      if
        l + 1 < n
        && before t (l + 1) (Array.unsafe_get t.ts l) (Array.unsafe_get t.qs l)
      then l + 1
      else l
    in
    if c < n && before t c time seq then begin
      move t ~src:c ~dst:!i;
      i := c
    end
    else moving := false
  done;
  fill t !i time seq (Array.unsafe_get t.ids n);
  top
