open O2_ir
open O2_util

type handlers = {
  access : int -> int -> bool -> unit;
  call : int -> unit;
  sync : int -> Bitset.t -> (unit -> unit) -> unit;
  spawn : int -> Bitset.t -> unit;
  join : int -> Bitset.t -> unit;
  signal : int -> Bitset.t -> unit;
  wait : int -> Bitset.t -> unit;
}

let ignore_all =
  {
    access = (fun _ _ _ -> ());
    call = ignore;
    sync = (fun _ _ body -> body ());
    spawn = (fun _ _ -> ());
    join = (fun _ _ -> ());
    signal = (fun _ _ -> ());
    wait = (fun _ _ -> ());
  }

(* A scan of the flat opcode streams. Statements appear in AST DFS order
   with block bodies inlined, so only [Sync] — the one construct with
   scoped consumer state — needs its block length; [If]/[While] headers
   are skipped and their bodies picked up by the linear scan, exactly like
   an AST recursion. Instances, callees and variable points-to sets come
   from the solver's dense instance call graph: array probes plus one
   int-keyed lookup per call site. *)
let iter_origins ?budget (a : Solver.result) f =
  let fl = a.Solver.flat and icg = a.Solver.icg in
  (* visited set over instance ids: one array stamped with the spawn
     index — no per-origin allocation, no structural hashing *)
  let stamp = Array.make (max 1 icg.Solver.ic_n) (-1) in
  let scanned = ref 0 in
  (* one location per object the base may point to, in descending object
     id. The statement being expanded sits in these cells, so one closure
     serves every field access of the walk *)
  let f_h = ref ignore_all and f_sid = ref 0 and f_fid = ref 0
  and f_write = ref false in
  let field_access oid =
    !f_h.access !f_sid (Flat.tid_field fl ~oid ~fid:!f_fid) !f_write
  in
  let fields h (pts : Bitset.t array) sid base fid is_write =
    f_h := h;
    f_sid := sid;
    f_fid := fid;
    f_write := is_write;
    Bitset.iter_desc field_access pts.(base)
  in
  let rec visit h spi iid =
    if stamp.(iid) <> spi then begin
      stamp.(iid) <- spi;
      let code = (Flat.meth fl icg.Solver.ic_mid.(iid)).Flat.f_code in
      walk h spi iid code icg.Solver.ic_pts.(iid) 0 (Array.length code)
    end
  and walk h spi iid code pts lo hi =
    let i = ref lo in
    while !i < hi do
      let j = !i in
      let op = code.(j) and sid = code.(j + 1) in
      incr scanned;
      i := j + Flat.width code j;
      if op = Flat.op_fwrite then fields h pts sid code.(j + 2) code.(j + 3) true
      else if op = Flat.op_fread then
        fields h pts sid code.(j + 3) code.(j + 4) false
      else if op = Flat.op_awrite then
        fields h pts sid code.(j + 2) fl.Flat.f_star true
      else if op = Flat.op_aread then
        fields h pts sid code.(j + 3) fl.Flat.f_star false
      else if op = Flat.op_swrite then
        h.access sid (Flat.tid_static fl code.(j + 2)) true
      else if op = Flat.op_sread then
        h.access sid (Flat.tid_static fl code.(j + 3)) false
      else if op = Flat.op_new || op = Flat.op_callv || op = Flat.op_calls
      then begin
        h.call sid;
        match
          Hashtbl.find icg.Solver.ic_callees ((iid * icg.Solver.ic_nsids) + sid)
        with
        | callees ->
            for k = 0 to Array.length callees - 1 do
              visit h spi callees.(k)
            done
        | exception Not_found -> ()
      end
      else if op = Flat.op_sync then begin
        let body_lo = !i in
        let body_hi = body_lo + code.(j + 3) in
        h.sync sid pts.(code.(j + 2)) (fun () ->
            walk h spi iid code pts body_lo body_hi);
        i := body_hi
      end
      else if op = Flat.op_start || op = Flat.op_post then
        h.spawn sid pts.(code.(j + 2))
      else if op = Flat.op_join then h.join sid pts.(code.(j + 2))
      else if op = Flat.op_signal then h.signal sid pts.(code.(j + 2))
      else if op = Flat.op_wait then h.wait sid pts.(code.(j + 2))
    done
  in
  Array.iteri
    (fun spi (sp : Solver.spawn) ->
      (match budget with Some b -> Budget.check b ~steps:0 | None -> ());
      visit (f sp) spi icg.Solver.ic_entry.(sp.Solver.sp_id))
    a.Solver.spawns;
  !scanned
