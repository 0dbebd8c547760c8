(* A set is a window of words: [words.(k)] holds absolute word [base + k],
   and no element lies outside the window. Points-to sets are mostly
   near-singletons over ids that grow with the program, so a set whose
   only element is object 3 000 holds one word, not the 47 of a
   zero-based array, and every operation scans the window, not the
   prefix below it.

   [top] is a cached upper bound on content: every nonzero word index is
   < [top], and [top] <= [base + Array.length words]. Mutators maintain it
   monotonically; [top_word] trims it back to the exact bound (0 when the
   set is empty). It exists so the hot worklist operations of the PTA
   solver scan live content, never capacity. *)
type t = { mutable words : int array; mutable base : int; mutable top : int }

let word_bits = Sys.int_size

(* Freshly created sets own a shared zero-length array until the first
   [ensure]: the PAG allocates pts/delta/pending sets for every
   node up front, and most never grow past empty. *)
let empty_words : int array = [||]

let create () = { words = empty_words; base = 0; top = 0 }

(* the word at absolute index [w], 0 outside the window *)
let get s w =
  let k = w - s.base in
  if k >= 0 && k < Array.length s.words then s.words.(k) else 0

(* Widen the window to cover absolute words [lo, hi) (lo < hi). A first
   window is exact; a growing one at least doubles, the spare words on
   the side that grew, so a set filled in either direction reallocates
   O(log n) times. *)
let ensure s lo hi =
  let n = Array.length s.words and b = s.base in
  if n = 0 then begin
    s.words <- Array.make (hi - lo) 0;
    s.base <- lo
  end
  else if lo < b || hi > b + n then begin
    let need_lo = min lo b and need_hi = max hi (b + n) in
    let cap = max (need_hi - need_lo) (2 * n) in
    let nb, len =
      if lo < b then
        let nb = max 0 (need_hi - cap) in
        (nb, need_hi - nb)
      else (need_lo, cap)
    in
    let a = Array.make len 0 in
    Array.blit s.words 0 a (b - nb) n;
    s.words <- a;
    s.base <- nb
  end

let add s i =
  if i < 0 then invalid_arg "Bitset.add: negative";
  let w = i / word_bits and b = i mod word_bits in
  ensure s w (w + 1);
  let k = w - s.base in
  let old = s.words.(k) in
  let nw = old lor (1 lsl b) in
  if nw = old then false
  else begin
    s.words.(k) <- nw;
    if w >= s.top then s.top <- w + 1;
    true
  end

let singleton i =
  let s = create () in
  ignore (add s i);
  s

let copy s = { words = Array.copy s.words; base = s.base; top = s.top }

let mem s i =
  i >= 0 && get s (i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(* Index just past the last nonzero word, 0 for the empty set. Starts from
   the cached [top] and trims it, so repeated calls on a stable set are
   O(1). *)
let top_word s =
  let i = ref s.top in
  while !i > s.base && s.words.(!i - 1 - s.base) = 0 do
    decr i
  done;
  if !i <= s.base then i := 0;
  s.top <- !i;
  !i

(* the first nonzero word of a set whose [top_word] is [hi] > 0 *)
let low_word s hi =
  let i = ref s.base in
  while !i < hi && s.words.(!i - s.base) = 0 do
    incr i
  done;
  !i

let union_into ~into src =
  let hi = top_word src in
  if hi = 0 then false
  else begin
    let lo = low_word src hi in
    ensure into lo hi;
    let changed = ref false in
    for w = lo to hi - 1 do
      let sw = src.words.(w - src.base) in
      if sw <> 0 then begin
        let k = w - into.base in
        let old = into.words.(k) in
        let nw = old lor sw in
        if nw <> old then begin
          into.words.(k) <- nw;
          changed := true
        end
      end
    done;
    if !changed && hi > into.top then into.top <- hi;
    !changed
  end

(* [union_span_into ~into src ~lo ~hi] unions words [lo,hi) of [src] into
   [into] — the caller (the worklist drain) knows the span holding fresh
   bits and skips the rest. *)
let union_span_into ~into src ~lo ~hi =
  if hi > lo then begin
    ensure into lo hi;
    for w = lo to hi - 1 do
      let sw = get src w in
      if sw <> 0 then begin
        let k = w - into.base in
        into.words.(k) <- into.words.(k) lor sw
      end
    done;
    if hi > into.top then into.top <- hi
  end

let iter_word f w base =
  if w <> 0 then
    for b = 0 to word_bits - 1 do
      if w land (1 lsl b) <> 0 then f (base + b)
    done

let iter f s =
  let hi = top_word s in
  for w = s.base to hi - 1 do
    iter_word f s.words.(w - s.base) (w * word_bits)
  done

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i l -> i :: l) s [])

let diff_new ~from ~minus =
  let out = ref [] in
  Array.iteri
    (fun k w ->
      let wi = from.base + k in
      let d = w land lnot (get minus wi) in
      iter_word (fun i -> out := i :: !out) d (wi * word_bits))
    from.words;
  List.rev !out

let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    incr c;
    w := !w land (!w - 1)
  done;
  !c

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let cardinal_span s ~lo ~hi =
  let acc = ref 0 in
  for w = max lo s.base to min hi (s.base + Array.length s.words) - 1 do
    acc := !acc + popcount s.words.(w - s.base)
  done;
  !acc

let is_empty s = top_word s = 0

let exists p s =
  try
    iter (fun i -> if p i then raise Exit) s;
    false
  with Exit -> true

let inter_nonempty a b =
  let lo = max a.base b.base
  and hi = min (a.base + Array.length a.words) (b.base + Array.length b.words) in
  let rec go w =
    w < hi
    && (a.words.(w - a.base) land b.words.(w - b.base) <> 0 || go (w + 1))
  in
  go lo

let subset a b =
  let ok = ref true in
  Array.iteri
    (fun k w -> if w land lnot (get b (a.base + k)) <> 0 then ok := false)
    a.words;
  !ok

let equal a b = subset a b && subset b a

let clear s =
  Array.fill s.words 0 (Array.length s.words) 0;
  s.top <- 0

(* [take_fresh_span ~scratch ~pts ~delta] is the span-returning core of
   the allocation-free pop: fresh elements land in [scratch] and the
   result is the word span [lo, hi) holding them ([(0, 0)] when none).
   Scratch words inside the span are written exactly; words outside are
   stale from earlier pops — consumers must stay within the span. Cost is
   bounded by the delta's live content, not anyone's capacity. *)
let take_fresh_span ~scratch ~pts ~delta =
  let nd = top_word delta in
  if nd = 0 then (0, 0)
  else begin
    (* writes are bounded by the delta's nonzero span, so a lone high id
       costs one word *)
    let first = low_word delta nd in
    ensure pts first nd;
    ensure scratch first nd;
    let lo = ref nd and hi = ref 0 in
    for w = first to nd - 1 do
      let kd = w - delta.base and kp = w - pts.base in
      let dw = delta.words.(kd) in
      let f =
        if dw = 0 then 0
        else begin
          delta.words.(kd) <- 0;
          dw land lnot pts.words.(kp)
        end
      in
      scratch.words.(w - scratch.base) <- f;
      if f <> 0 then begin
        if w < !lo then lo := w;
        hi := w + 1;
        pts.words.(kp) <- pts.words.(kp) lor f
      end
    done;
    delta.top <- 0;
    if !hi = 0 then (0, 0)
    else begin
      if !hi > pts.top then pts.top <- !hi;
      if !hi > scratch.top then scratch.top <- !hi;
      (!lo, !hi)
    end
  end

(* a fresh scratch has no stale words: its window is exactly the span *)
let take_fresh ~pts ~delta =
  let fresh = create () in
  let _, hi = take_fresh_span ~scratch:fresh ~pts ~delta in
  if hi = 0 then None else Some fresh

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements s)
