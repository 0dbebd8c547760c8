module LsIntern = O2_util.Intern.Make (struct
  type t = int list  (* sorted, deduped *)

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type t = {
  intern : LsIntern.t;
  disjoint_cache : bool O2_util.Inttbl.t;
      (* keyed by the ordered id pair, packed [lo lsl 31 lor hi] *)
  acquired : int O2_util.Inttbl.t;  (* keyed [ls lsl 31 lor (lock + 1)] *)
  mutable hits : int;
  mutable misses : int;
}

let dispatcher_lock = -1

let create () =
  let t =
    {
      intern = LsIntern.create ();
      disjoint_cache = O2_util.Inttbl.create 64;
      acquired = O2_util.Inttbl.create 64;
      hits = 0;
      misses = 0;
    }
  in
  ignore (LsIntern.intern t.intern []);
  t

let empty _t = 0
let id t locks = LsIntern.intern t.intern (List.sort_uniq compare locks)
let elements t ls = LsIntern.value t.intern ls

(* memoized per (lockset, lock): a miss interns what an unmemoized call
   would, so the ids do not depend on the cache *)
let acquire t ls l =
  if ls lsr 31 <> 0 || (l + 1) lsr 31 <> 0 then
    invalid_arg "Lockset.acquire: id exceeds the 31-bit packing bound";
  let key = (ls lsl 31) lor (l + 1) in
  match O2_util.Inttbl.find t.acquired key with
  | v -> v
  | exception Not_found ->
      let cur = elements t ls in
      let v = if List.mem l cur then ls else id t (l :: cur) in
      O2_util.Inttbl.add t.acquired key v;
      v

let disjoint t a b =
  if a = 0 || b = 0 then true
  else
    let lo = Int.min a b and hi = Int.max a b in
    (* the guard makes an overflow fail loudly instead of silently sharing
       one cache entry between two id pairs *)
    if hi lsr 31 <> 0 then
      invalid_arg "Lockset.disjoint: id exceeds the 31-bit packing bound";
    let key = (lo lsl 31) lor hi in
    match O2_util.Inttbl.find t.disjoint_cache key with
    | v ->
        t.hits <- t.hits + 1;
        v
    | exception Not_found ->
        t.misses <- t.misses + 1;
        let la = elements t a and lb = elements t b in
        let v = not (List.exists (fun l -> List.mem l lb) la) in
        O2_util.Inttbl.add t.disjoint_cache key v;
        v

let n_distinct t = LsIntern.count t.intern
let cache_hits t = t.hits
let cache_misses t = t.misses
