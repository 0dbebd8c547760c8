(* [top] is a cached upper bound on content: every nonzero word index is
   < [top], and [top] <= capacity. Mutators maintain it monotonically;
   [top_word] trims it back to the exact bound. It exists so the hot
   worklist operations of the PTA solver scan live content, never
   capacity — capacities track the highest id ever seen while deltas are
   usually near-singletons. *)
type t = { mutable words : int array; mutable top : int }

let word_bits = Sys.int_size

(* Freshly created sets own a shared zero-length array until the first
   [ensure]: the PAG allocates pts/delta/pending sets for every interned
   node up front, and most never grow past empty. *)
let empty_words : int array = [||]

let create () = { words = empty_words; top = 0 }

let ensure s i =
  let w = i / word_bits in
  let n = Array.length s.words in
  if w >= n then begin
    let n' = ref (max 4 n) in
    while w >= !n' do
      n' := !n' * 2
    done;
    let a = Array.make !n' 0 in
    Array.blit s.words 0 a 0 n;
    s.words <- a
  end

let add s i =
  if i < 0 then invalid_arg "Bitset.add: negative";
  ensure s i;
  let w = i / word_bits and b = i mod word_bits in
  let old = s.words.(w) in
  let nw = old lor (1 lsl b) in
  if nw = old then false
  else begin
    s.words.(w) <- nw;
    if w >= s.top then s.top <- w + 1;
    true
  end

let singleton i =
  let s = create () in
  ignore (add s i);
  s

let copy s = { words = Array.copy s.words; top = s.top }

let mem s i =
  if i < 0 then false
  else
    let w = i / word_bits in
    w < Array.length s.words && s.words.(w) land (1 lsl (i mod word_bits)) <> 0

(* Index just past the last nonzero word. Starts from the cached [top] and
   trims it, so repeated calls on a stable set are O(1). *)
let top_word s =
  let i = ref s.top in
  while !i > 0 && s.words.(!i - 1) = 0 do
    decr i
  done;
  s.top <- !i;
  !i

let union_into ~into src =
  let hi = top_word src in
  if hi = 0 then false
  else begin
    ensure into ((hi * word_bits) - 1);
    let changed = ref false in
    for w = 0 to hi - 1 do
      let sw = src.words.(w) in
      if sw <> 0 then begin
        let old = into.words.(w) in
        let nw = old lor sw in
        if nw <> old then begin
          into.words.(w) <- nw;
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
    ensure into ((hi * word_bits) - 1);
    for w = lo to hi - 1 do
      let sw = src.words.(w) in
      if sw <> 0 then into.words.(w) <- into.words.(w) lor sw
    done;
    if hi > into.top then into.top <- hi
  end

let inter_into ~into src =
  let hi = top_word into in
  let ns = Array.length src.words in
  for w = 0 to hi - 1 do
    let sw = if w < ns then src.words.(w) else 0 in
    let old = into.words.(w) in
    if old land lnot sw <> 0 then into.words.(w) <- old land sw
  done

let iter_word f w base =
  if w <> 0 then
    for b = 0 to word_bits - 1 do
      if w land (1 lsl b) <> 0 then f (base + b)
    done

let iter f s =
  let hi = top_word s in
  for wi = 0 to hi - 1 do
    iter_word f s.words.(wi) (wi * word_bits)
  done

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i l -> i :: l) s [])

let diff_new ~from ~minus =
  let out = ref [] in
  Array.iteri
    (fun wi w ->
      let mw = if wi < Array.length minus.words then minus.words.(wi) else 0 in
      let d = w land lnot mw in
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
  for w = lo to min hi (Array.length s.words) - 1 do
    acc := !acc + popcount s.words.(w)
  done;
  !acc

let is_empty s = top_word s = 0

let exists p s =
  try
    iter (fun i -> if p i then raise Exit) s;
    false
  with Exit -> true

let inter_nonempty a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go i = i < n && (a.words.(i) land b.words.(i) <> 0 || go (i + 1)) in
  go 0

let subset a b =
  let nb = Array.length b.words in
  let ok = ref true in
  Array.iteri
    (fun wi w ->
      let bw = if wi < nb then b.words.(wi) else 0 in
      if w land lnot bw <> 0 then ok := false)
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
    ensure pts ((nd * word_bits) - 1);
    ensure scratch ((nd * word_bits) - 1);
    (* first nonzero delta word: writes below are bounded by the delta's
       nonzero span, so a lone high id costs one word, not a prefix scan *)
    let first = ref 0 in
    while delta.words.(!first) = 0 do
      incr first
    done;
    let lo = ref nd and hi = ref 0 in
    for w = !first to nd - 1 do
      let dw = delta.words.(w) in
      let f =
        if dw = 0 then 0
        else begin
          delta.words.(w) <- 0;
          dw land lnot pts.words.(w)
        end
      in
      scratch.words.(w) <- f;
      if f <> 0 then begin
        if w < !lo then lo := w;
        hi := w + 1;
        pts.words.(w) <- pts.words.(w) lor f
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

let take_fresh ~pts ~delta =
  let nd = Array.length delta.words in
  if nd = 0 then None
  else begin
    ensure pts (max 0 ((nd * word_bits) - 1));
    let fresh = Array.make nd 0 in
    let any = ref false in
    let hi = ref 0 in
    for w = 0 to nd - 1 do
      let dw = delta.words.(w) in
      if dw <> 0 then begin
        let f = dw land lnot pts.words.(w) in
        if f <> 0 then begin
          any := true;
          fresh.(w) <- f;
          hi := w + 1;
          pts.words.(w) <- pts.words.(w) lor f
        end;
        delta.words.(w) <- 0
      end
    done;
    delta.top <- 0;
    if !any then begin
      if !hi > pts.top then pts.top <- !hi;
      Some { words = fresh; top = !hi }
    end
    else None
  end

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements s)
