open O2_ir
open O2_pta
open O2_shb
open O2_util

type race = {
  r_target : Access.target;
  r_a : Graph.node;
  r_b : Graph.node;
}

type report = {
  races : race list;
  n_pairs_checked : int;
  n_hb_pruned : int;
  n_lock_pruned : int;
  n_class_pruned : int;
}

(* [races] holds one witness per dedup key already *)
let n_races report = List.length report.races

let is_write (n : Graph.node) =
  match n.Graph.n_kind with Graph.Write _ -> true | _ -> false

let tid_of (n : Graph.node) =
  match n.Graph.n_kind with
  | Graph.Read t | Graph.Write t -> t
  | _ -> invalid_arg "Detect: not an access node"

(* [a *! b] multiplies the bounds of a packed int key, failing loudly where
   the key would leave the int range instead of silently merging unrelated
   keys *)
let ( *! ) a b =
  if b > 0 && a > max_int / b then
    invalid_arg "Detect: packed key exceeds the int range";
  a * b

(* in-place heapsort of [a.(lo) .. a.(hi - 1)]: the run-level buffers are
   longer than the slice, which rules out [Array.sort]. Top-level and
   closure-free, so a call allocates nothing. *)
let rec sift (a : int array) lo i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
    let x = a.(lo + i) in
    if a.(lo + c) > x then begin
      a.(lo + i) <- a.(lo + c);
      a.(lo + c) <- x;
      sift a lo c len
    end
  end

let sort_slice a lo hi =
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift a lo i n
  done;
  for len = n - 1 downto 1 do
    let x = a.(lo) in
    a.(lo) <- a.(lo + len);
    a.(lo + len) <- x;
    sift a lo 0 len
  done

(* counting sort of [0 .. len-1] by [key x < k] into [out], ascending inside
   each bucket: bucket b fills [out.(start.(b)) .. out.(start.(b+1) - 1)] *)
let bucket ~key ~len ~k (start : int array) (out : int array) =
  Array.fill start 0 (k + 1) 0;
  for x = 0 to len - 1 do
    start.(key x) <- start.(key x) + 1
  done;
  for b = 1 to k do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  for x = len - 1 downto 0 do
    let b = key x in
    start.(b) <- start.(b) - 1;
    out.(start.(b)) <- x
  done

(* grow a run-level buffer, by doubling, to hold [n] ints *)
let reserve (b : int array ref) n =
  if Array.length !b < n then begin
    let a = Array.make (max n (2 * Array.length !b)) 0 in
    Array.blit !b 0 a 0 (Array.length !b);
    b := a
  end

(* ------------------------------------------------------------------ *)
(* origin blocks and equivalence classes *)

(* The hybrid check sees a node of one target group only through its
   origin's self-parallelism, its canonical lockset id, its access kind,
   its HB interval ({!Graph.hb_t_idx}, {!Graph.hb_q_idx}), and the
   closure relations of its origin. Origins whose relations are
   indistinguishable inside the group — identical occupied intervals, one
   shared relation matrix between every ordered pair of them, identical
   relations toward every other origin of the group — form a *block*:
   e.g. a farm of worker threads all spawned alike. Nodes are then
   classed by (block, HB interval, lockset, is-write): one check per
   class pair decides every member pair, with same-origin member pairs
   inside a block accounted combinatorially (they are candidates only
   under self-parallelism, exactly as in the pairwise loop), so the
   reported races and the total pair accounting stay identical while
   [n_pairs_checked] drops from O(n²) to O(classes²).

   Blocks are found without an m×m table of relation matrices: every
   true interval-level answer lies on a finite closure entry, so each
   origin's relation row is built from its closure pieces
   ({!Graph.hb_pieces}), holds only its nonzero matrices, and yields
   the columns by transposition. Closure queries then scale with the
   finite entries among the group's origins, not with m².

   Every structure of the pass is a flat int array allocated once per run,
   sized by the run's largest group (or grown by doubling where the group
   cannot bound it): a group names its members by position p (id order),
   its origins by index i (first-node order), its classes by run of equal
   sorted class keys. Witnesses are deduplicated as they are found. *)

let run_detect g =
  let locks = Graph.locks g and fl = (Graph.solver g).Solver.flat in
  let accs = Graph.accesses g in
  let na = Array.length accs in
  (* bucket the accesses by flat location id: one int-keyed probe per
     access names the groups, one counting sort lays every group's members
     out id-ascending in [csr] (the tid encoding is injective, so the
     groups are exactly the structural-target groups) *)
  let gid = Inttbl.create 256 and gof = Array.make na 0 in
  Array.iteri
    (fun x n ->
      let t = tid_of n in
      gof.(x) <-
        (match Inttbl.find gid t with
        | k -> k
        | exception Not_found ->
            let k = Inttbl.length gid in
            Inttbl.add gid t k;
            k))
    accs;
  let ng = Inttbl.length gid in
  let gstart = Array.make (ng + 1) 0 and csr = Array.make na 0 in
  bucket ~key:(fun x -> gof.(x)) ~len:na ~k:ng gstart csr;
  let n_max = ref 1 and ns = ref 1 in
  for k = 0 to ng - 1 do
    n_max := Int.max !n_max (gstart.(k + 1) - gstart.(k))
  done;
  Array.iter (fun (n : Graph.node) -> ns := Int.max !ns (n.Graph.n_sid + 1))
    accs;
  (* packing bounds: HB intervals ({!Graph.interval_bounds}), canonical
     lockset ids, statement ids, and dense field keys — a field's interned
     id, or [n_fields] + a static's slot *)
  let tb, qb = Graph.interval_bounds g and nls = Lockset.n_distinct locks in
  let n_o = max 1 (Graph.n_origins g) and ns = !ns and n_max = !n_max in
  let nf = Flat.n_fields fl in
  let nfk = nf + Flat.n_statics fl in
  ignore (n_o *! n_o);
  ignore (na *! na);
  ignore (ns *! ns *! nfk);
  let m_max = Int.min n_max n_o in
  let ostamp = Array.make n_o (-1) (* origin -> last group holding it *)
  and oidx = Array.make n_o 0 (* origin -> its index in that group *)
  (* per member position p *)
  and porg = Array.make n_max 0 (* origin index *)
  and ivl = Array.make n_max 0 (* HB interval, packed t * qb + q *)
  and opos = Array.make n_max 0 (* positions, bucketed by origin *)
  and keys = Array.make n_max 0 (* class key * n + slot in opos *)
  and tq = Array.make (2 * n_max) 0 (* each origin's distinct t, then q *)
  (* per class (run of equal keys) *)
  and cs = Array.make (n_max + 1) 0 (* its first slot in keys *)
  and cfirst = Array.make n_max 0 (* first member's position *)
  and cord = Array.make n_max 0 (* classes by first member *)
  (* per origin index i *)
  and oid = Array.make m_max 0
  and ostart = Array.make (m_max + 1) 0
  and os = Array.make m_max 0 (* its t's start in tq *)
  and nts = Array.make m_max 0
  and nqs = Array.make m_max 0
  and pre = Array.make m_max 0 (* [preorder * m + i], sorted *)
  and rstart = Array.make (m_max + 1) 0
  and cstart = Array.make (m_max + 1) 0
  and cur = Array.make m_max (-1) (* its words in the row being built *)
  and digest = Array.make m_max 0
  and nxt = Array.make m_max (-1) (* next representative, same digest *)
  and blk = Array.make m_max 0
  and bfirst = Array.make m_max 0 (* per block: first two members *)
  and bsecond = Array.make m_max 0 in
  (* sparse relation rows: entry e of row i names a group origin
     [rkey.(e)] whose relation matrix from i is nonzero, bit-packed into
     [words] from [roff.(e)]; [cperm] lists the entries by column *)
  let rkey = ref [||] and roff = ref [||] and rsrc = ref [||]
  and cperm = ref [||] and words = ref [||] in
  let reps = Inttbl.create 64 (* digest -> latest representative *)
  and kept = Inttbl.create 64 (* dedup key -> least witness *) in
  let pairs = ref 0 and n_hb = ref 0 and n_lock = ref 0 and n_cls = ref 0 in
  let hbq = ref 0 (* interval-level HB queries, flushed to the graph *) in
  let hb_state ~src ~t_idx ~dst ~q_idx =
    incr hbq;
    Graph.hb_state g ~src ~t_idx ~dst ~q_idx
  in
  (* one witness, as access indices: kept when it is the least (by node
     ids) of its (site pair, field) key — the first survivor of a sort by
     node ids then a dedup *)
  let record fk a b =
    let a = Int.min a b and b = Int.max a b in
    let sa = accs.(a).Graph.n_sid and sb = accs.(b).Graph.n_sid in
    let key = (((Int.min sa sb * ns) + Int.max sa sb) * nfk) + fk
    and w = (a * na) + b in
    match Inttbl.find kept key with
    | v -> if w < v then Inttbl.replace kept key w
    | exception Not_found -> Inttbl.add kept key w
  in
  let check_group k =
    let lo = gstart.(k) in
    let n = gstart.(k + 1) - lo in
    let node p = accs.(csr.(lo + p)) in
    (* the group's origins in first-node order; a quick filter skips
       single-origin or read-only groups *)
    let m = ref 0 and has_write = ref false in
    for p = 0 to n - 1 do
      let nd = node p in
      let o = nd.Graph.n_origin in
      if ostamp.(o) <> k then begin
        ostamp.(o) <- k;
        oidx.(o) <- !m;
        oid.(!m) <- o;
        incr m
      end;
      porg.(p) <- oidx.(o);
      if is_write nd then has_write := true
    done;
    let m = !m in
    if !has_write && not (m = 1 && not (Graph.self_parallel g oid.(0)))
    then begin
      let tid = tid_of (node 0) in
      let fk =
        if Flat.tid_is_static fl tid then nf + tid else Flat.tid_fid fl tid
      in
      for p = 0 to n - 1 do
        let nd = node p in
        ivl.(p) <- (Graph.hb_t_idx g nd * qb) + Graph.hb_q_idx g nd
      done;
      bucket ~key:(fun p -> porg.(p)) ~len:n ~k:m ostart opos;
      (* each origin's distinct t, then its distinct q: intervals grow with
         the node id inside one origin, so its id-ascending members list
         them sorted and only consecutive repeats are duplicates *)
      let len = ref 0 in
      let distinct i ~q =
        let c = ref 0 in
        for x = ostart.(i) to ostart.(i + 1) - 1 do
          let v = if q then ivl.(opos.(x)) mod qb else ivl.(opos.(x)) / qb in
          if !c = 0 || tq.(!len - 1) <> v then begin
            tq.(!len) <- v;
            incr len;
            incr c
          end
        done;
        !c
      in
      for i = 0 to m - 1 do
        os.(i) <- !len;
        nts.(i) <- distinct i ~q:false;
        nqs.(i) <- distinct i ~q:true
      done;
      (* the group's origins by spawn-tree preorder ({!Graph.preorder}), so
         the members inside one closure piece are found by binary search *)
      for i = 0 to m - 1 do
        pre.(i) <- (Graph.preorder g oid.(i) * m) + i
      done;
      sort_slice pre 0 m;
      let first_at_or_after x =
        let lo = ref 0 and hi = ref m in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if pre.(mid) < x * m then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      (* row i: each group origin v whose relation matrix from i is
         nonzero, that matrix bit-packed row-major over i's t's × v's q's.
         Only the group origins the closure pieces cover can relate; bit
         (t, q) is set where the piece's entry rank is below q, the answer
         {!Graph.hb_state} would give *)
      let nr = ref 0 and nw = ref 0 in
      for i = 0 to m - 1 do
        rstart.(i) <- !nr;
        let nt = nts.(i) in
        for ti = 0 to nt - 1 do
          let row = Graph.hb_pieces g ~src:oid.(i) ~t_idx:tq.(os.(i) + ti) in
          for x = 0 to (Array.length row / 3) - 1 do
            let hi = row.((3 * x) + 1) and rank = row.((3 * x) + 2) in
            let j = ref (first_at_or_after row.(3 * x)) in
            while !j < m && pre.(!j) < (hi + 1) * m do
              let v = pre.(!j) mod m in
              incr j;
              if v <> i then begin
                let nq = nqs.(v) and qs = os.(v) + nts.(v) in
                hbq := !hbq + nq;
                for qi = 0 to nq - 1 do
                  if rank < tq.(qs + qi) then begin
                    if cur.(v) < 0 then begin
                      let len = ((nt * nq) + 62) / 63 in
                      reserve words (!nw + len);
                      Array.fill !words !nw len 0;
                      cur.(v) <- !nw;
                      nw := !nw + len;
                      reserve rkey (!nr + 1);
                      !rkey.(!nr) <- v;
                      incr nr
                    end;
                    let b = (ti * nq) + qi in
                    let at = cur.(v) + (b / 63) in
                    !words.(at) <- !words.(at) lor (1 lsl (b mod 63))
                  end
                done
              end
            done
          done
        done;
        (* entries by group index: one order for every row *)
        sort_slice !rkey rstart.(i) !nr;
        reserve roff !nr;
        reserve rsrc !nr;
        for e = rstart.(i) to !nr - 1 do
          let v = !rkey.(e) in
          !roff.(e) <- cur.(v);
          !rsrc.(e) <- i;
          cur.(v) <- -1
        done
      done;
      rstart.(m) <- !nr;
      reserve cperm !nr;
      let rkey = !rkey and roff = !roff and rsrc = !rsrc and w = !words in
      (* columns by transposition, each in group order *)
      bucket ~key:(fun e -> rkey.(e)) ~len:!nr ~k:m cstart !cperm;
      let cperm = !cperm in
      let nwords i v = ((nts.(i) * nqs.(v)) + 62) / 63 in
      let eq (a : int array) x y len =
        let d = ref 0 in
        while !d < len && a.(x + !d) = a.(y + !d) do
          incr d
        done;
        !d = len
      in
      (* slot x of a row ([col] false: entry x) or of a column *)
      let key ~col x = if col then rsrc.(cperm.(x)) else rkey.(x) in
      let off ~col x = roff.(if col then cperm.(x) else x) in
      (* slots [a, a1) without key [ka] against [b, b1) without key [kb],
         position by position, in row or column i *)
      let rec eq_without ~col i a a1 ka b b1 kb =
        if a < a1 && key ~col a = ka then
          eq_without ~col i (a + 1) a1 ka b b1 kb
        else if b < b1 && key ~col b = kb then
          eq_without ~col i a a1 ka (b + 1) b1 kb
        else if a = a1 || b = b1 then a = a1 && b = b1
        else
          let k = key ~col a in
          k = key ~col b
          && eq w (off ~col a) (off ~col b)
               (if col then nwords k i else nwords i k)
          && eq_without ~col i (a + 1) a1 ka (b + 1) b1 kb
      in
      let rel i v =
        let e = ref rstart.(i) in
        while !e < rstart.(i + 1) && rkey.(!e) <> v do
          incr e
        done;
        if !e < rstart.(i + 1) then roff.(!e) else -1
      in
      (* [equiv i r]: origins i and r are interchangeable inside this group —
         same self-parallelism and occupied slots, symmetric relation between
         the two, and identical relations toward every third origin, compared
         position by position (absent = zero). The relation is transitive
         (each third-origin row/column equality chains, and the pairwise
         entries themselves are pinned by any third member), so testing a
         candidate against one representative per block suffices *)
      let equiv i r =
        Graph.self_parallel g oid.(i) = Graph.self_parallel g oid.(r)
        && nts.(i) = nts.(r)
        && nqs.(i) = nqs.(r)
        && eq tq os.(i) os.(r) (nts.(i) + nqs.(i))
        && (let a = rel i r and b = rel r i in
            if a < 0 || b < 0 then a = b else eq w a b (nwords i r))
        && eq_without ~col:false i rstart.(i) rstart.(i + 1) r rstart.(r)
             rstart.(r + 1) i
        && eq_without ~col:true i cstart.(i) cstart.(i + 1) r cstart.(r)
             cstart.(r + 1) i
      in
      (* greedy origin blocks, deterministic (first-node order both ways).
         Equivalent origins share (self-par, ts, qs, |row|, |col|), so a
         candidate is tested only against the representatives whose digest
         of that key equals its own (chained from [reps] through [nxt]); by
         transitivity at most one of them is equivalent to it *)
      let mix h x = ((h * 31) + x) land max_int in
      for i = 0 to m - 1 do
        let h = ref (Bool.to_int (Graph.self_parallel g oid.(i))) in
        h := mix !h (rstart.(i + 1) - rstart.(i));
        h := mix !h (cstart.(i + 1) - cstart.(i));
        for x = os.(i) to os.(i) + nts.(i) + nqs.(i) - 1 do
          h := mix !h tq.(x)
        done;
        digest.(i) <- !h
      done;
      let nb = ref 0 in
      for i = 0 to m - 1 do
        let head = try Inttbl.find reps digest.(i) with Not_found -> -1 in
        let r = ref head in
        while !r >= 0 && not (equiv i !r) do
          r := nxt.(!r)
        done;
        if !r >= 0 then begin
          let b = blk.(!r) in
          blk.(i) <- b;
          if bsecond.(b) < 0 then bsecond.(b) <- i
        end
        else begin
          nxt.(i) <- head;
          Inttbl.replace reps digest.(i) i;
          blk.(i) <- !nb;
          bfirst.(!nb) <- i;
          bsecond.(!nb) <- -1;
          incr nb
        end
      done;
      for i = 0 to m - 1 do
        Inttbl.remove reps digest.(i)
      done;
      (* node classes: the class key packs (block, t, q, lockset, is-write)
         into one int — blocks, intervals and lockset ids are all dense, so
         the mixed-radix code is injective. Keys carry the member's slot in
         [opos] below them, so sorting puts each class in one run with its
         members by origin, then id *)
      ignore (!nb *! (tb *! qb) *! nls *! 2 *! n);
      for x = 0 to n - 1 do
        let p = opos.(x) in
        let nd = node p in
        let key =
          ((((blk.(porg.(p)) * tb * qb) + ivl.(p)) * nls) + nd.Graph.n_lockset)
          * 2
          + if is_write nd then 1 else 0
        in
        keys.(x) <- (key * n) + x
      done;
      sort_slice keys 0 n;
      let member x = opos.(keys.(x) mod n) in
      (* class c spans keys.(cs.(c)) .. keys.(cs.(c + 1) - 1); [cord] lists
         the classes by first member (= id), packed [first * n + c] *)
      let nc = ref 0 and x = ref 0 in
      while !x < n do
        let c = !nc and key = keys.(!x) / n and p0 = ref n in
        cs.(c) <- !x;
        while !x < n && keys.(!x) / n = key do
          p0 := Int.min !p0 (member !x);
          incr x
        done;
        cfirst.(c) <- !p0;
        cord.(c) <- (!p0 * n) + c;
        incr nc
      done;
      let nc = !nc in
      cs.(nc) <- n;
      sort_slice cord 0 nc;
      let head c = node cfirst.(c) in
      let c_block c = blk.(porg.(cfirst.(c))) in
      let c_t c = ivl.(cfirst.(c)) / qb and c_q c = ivl.(cfirst.(c)) mod qb in
      let b_self_par b = Graph.self_parallel g oid.(bfirst.(b)) in
      let size c = cs.(c + 1) - cs.(c) in
      (* member pairs of classes ci and cj drawn from one origin, merging
         their origin-sorted members (for ci = cj, Σ c² over its origins) *)
      let same_origin ci cj =
        let s = ref 0 and x = ref cs.(ci) and y = ref cs.(cj) in
        while !x < cs.(ci + 1) && !y < cs.(cj + 1) do
          let ox = porg.(member !x) and oy = porg.(member !y) in
          if ox < oy then incr x
          else if oy < ox then incr y
          else begin
            let x0 = !x and y0 = !y in
            while !x < cs.(ci + 1) && porg.(member !x) = ox do
              incr x
            done;
            while !y < cs.(cj + 1) && porg.(member !y) = ox do
              incr y
            done;
            s := !s + ((!x - x0) * (!y - y0))
          end
        done;
        !s
      in
      let emit ~skip x y =
        let a = member x and b = member y in
        if not (skip && porg.(a) = porg.(b)) then
          record fk csr.(lo + a) csr.(lo + b)
      in
      (* a write by a self-parallel origin races with the same access in
         another run-time instance of that origin — unless the access holds a
         lock, which the other instance would hold too *)
      for c = 0 to nc - 1 do
        if
          is_write (head c)
          && b_self_par (c_block c)
          && (head c).Graph.n_lockset = Lockset.empty locks
        then begin
          incr pairs;
          n_cls := !n_cls + size c - 1;
          for x = cs.(c) to cs.(c + 1) - 1 do
            emit ~skip:false x x
          done
        end
      done;
      for i = 0 to nc - 1 do
        for j = i to nc - 1 do
          let ci = cord.(i) mod n and cj = cord.(j) mod n in
          if is_write (head ci) || is_write (head cj) then begin
            let bi = c_block ci and bj = c_block cj in
            let same_block = bi = bj in
            let sp_i = b_self_par bi and sp_j = b_self_par bj in
            let ni = size ci and nj = size cj in
            let total = if i = j then ni * (ni - 1) / 2 else ni * nj in
            (* member pairs drawn from one origin: candidates only under
               self-parallelism, exactly as in the pairwise loop *)
            let same_origin_pairs =
              if not same_block then 0
              else if i = j then (same_origin ci ci - ni) / 2
              else same_origin ci cj
            in
            let candidates =
              if same_block && not sp_i then total - same_origin_pairs
              else total
            in
            if candidates > 0 then begin
              incr pairs;
              n_cls := !n_cls + candidates - 1;
              let ls_i = (head ci).Graph.n_lockset
              and ls_j = (head cj).Graph.n_lockset in
              if not (Lockset.disjoint locks ls_i ls_j) then incr n_lock
              else begin
                (* HB edges in/out of a self-parallel origin order each
                   run-time instance only with its own children — the static
                   graph cannot tell instances apart, so HB pruning is
                   unsound there and only locksets apply *)
                let hb_usable = (not sp_i) && not sp_j in
                let hb_hit =
                  hb_usable
                  &&
                  if same_block then
                    (* candidates > 0 and no self-parallelism means the
                       block holds ≥ 2 origins; any ordered pair carries the
                       one shared relation matrix *)
                    bsecond.(bi) >= 0
                    &&
                    let u = oid.(bfirst.(bi)) and v = oid.(bsecond.(bi)) in
                    hb_state ~src:u ~t_idx:(c_t ci) ~dst:v ~q_idx:(c_q cj)
                    || hb_state ~src:u ~t_idx:(c_t cj) ~dst:v ~q_idx:(c_q ci)
                  else
                    let u = oid.(bfirst.(bi)) and v = oid.(bfirst.(bj)) in
                    hb_state ~src:u ~t_idx:(c_t ci) ~dst:v ~q_idx:(c_q cj)
                    || hb_state ~src:v ~t_idx:(c_t cj) ~dst:u ~q_idx:(c_q ci)
                in
                if hb_hit then incr n_hb
                else begin
                  let skip = same_block && not sp_i in
                  for x = cs.(ci) to cs.(ci + 1) - 1 do
                    let y0 = if i = j then x + 1 else cs.(cj) in
                    for y = y0 to cs.(cj + 1) - 1 do
                      emit ~skip x y
                    done
                  done
                end
              end
            end
          end
        done
      done
    end
  in
  for k = 0 to ng - 1 do
    check_group k
  done;
  Graph.note_hb_queries g !hbq;
  (* the kept witnesses by node ids; access indices follow node ids *)
  let races =
    Inttbl.fold (fun _ w l -> w :: l) kept []
    |> List.sort Int.compare
    |> List.map (fun w ->
           let a = accs.(w / na) and b = accs.(w mod na) in
           { r_target = Graph.target_of g (tid_of a); r_a = a; r_b = b })
  in
  {
    races;
    n_pairs_checked = !pairs;
    n_hb_pruned = !n_hb;
    n_lock_pruned = !n_lock;
    n_class_pruned = !n_cls;
  }

let run ?metrics ?jobs:_ g =
  match metrics with
  | None -> run_detect g
  | Some m ->
      let report =
        Metrics.span m "race.detect" (fun () -> run_detect g)
      in
      let locks = Graph.locks g in
      Metrics.set m "race.pairs_checked" report.n_pairs_checked;
      Metrics.set m "race.hb_pruned" report.n_hb_pruned;
      Metrics.set m "race.lock_pruned" report.n_lock_pruned;
      Metrics.set m "race.class_pruned" report.n_class_pruned;
      Metrics.set m "race.candidates" (List.length report.races);
      Metrics.set m "race.races" (n_races report);
      Metrics.set m "shb.hb_queries" (Graph.hb_queries g);
      (* the lockset disjointness cache is exercised by detection: snapshot
         its hit rate here (cumulative over all runs on this graph) *)
      Metrics.set m "shb.lockset_cache_hits" (Lockset.cache_hits locks);
      Metrics.set m "shb.lockset_cache_misses" (Lockset.cache_misses locks);
      report
