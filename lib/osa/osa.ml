open O2_ir
open O2_pta

type sharing = {
  sh_target : Access.target;
  sh_readers : int list;
  sh_writers : int list;
}

let is_shared sh =
  sh.sh_writers <> []
  &&
  let all = List.sort_uniq compare (sh.sh_readers @ sh.sh_writers) in
  match all with [] | [ _ ] -> false | _ -> true

type mut_sharing = {
  mutable readers : int list;
  mutable writers : int list;
}

(* Internally everything is keyed by flat location id (tid) — the scan
   table probes ints, never structural targets. The target-typed public
   queries encode/decode at the boundary; the tid encoding is injective,
   so every count and set below matches a structural-keyed scan. *)
type t = {
  flat : Flat.t;
  locs : mut_sharing option array;  (* tid-indexed; None = never accessed *)
  (* every (site, tid, origin, is_write) access, for #S-access *)
  mutable accesses : (int * int * int * bool) list;
  mutable n_accesses : int;
  (* objects touched per origin, keyed [origin * n_objs + oid] *)
  touched : (int, unit) Hashtbl.t;
  n_objs : int;
  (* canonical origin key per spawn id *)
  mutable key_of_spawn : int array;
}

let loc t tid =
  match t.locs.(tid) with
  | Some s -> s
  | None ->
      let s = { readers = []; writers = [] } in
      t.locs.(tid) <- Some s;
      s

let fold_locs t f acc =
  let r = ref acc in
  Array.iteri
    (fun tid s -> match s with Some s -> r := f tid s !r | None -> ())
    t.locs;
  !r

(* ComputeOriginSharing(s, f, O, isWrite) of Algorithm 1 *)
let compute_origin_sharing t ~site ~tid ~origin ~is_write =
  let s = loc t tid in
  if is_write then begin
    if not (List.mem origin s.writers) then s.writers <- origin :: s.writers
  end
  else if not (List.mem origin s.readers) then s.readers <- origin :: s.readers;
  t.accesses <- (site, tid, origin, is_write) :: t.accesses;
  t.n_accesses <- t.n_accesses + 1

let touch t origin oid =
  Hashtbl.replace t.touched ((origin * t.n_objs) + oid) ()

let freeze t tid (s : mut_sharing) =
  {
    sh_target = Access.of_tid t.flat tid;
    sh_readers = s.readers;
    sh_writers = s.writers;
  }

(* The scan: a linear pass over the flat opcode streams, counting every
   instruction (the walker's statement count) and recursing into
   callees at call instructions, exactly the {!Walk.iter_origin} DFS.
   Instances, callees and variable points-to sets all come from the
   solver's dense instance call graph ({!Solver.icg}): the whole scan is
   array probes plus one int-keyed lookup per call site. *)
let scan_flat a t n_scanned =
  let fl = a.Solver.flat in
  let icg = a.Solver.icg in
  let n_st = Flat.n_statics fl in
  (* per-spawn visited set: one shared array stamped with the spawn index *)
  let stamp = Array.make (max 1 icg.Solver.ic_n) (-1) in
  Array.iteri
    (fun spi (sp : Solver.spawn) ->
      let origin = Solver.origin_of_spawn a sp in
      let field_access (pts : O2_util.Bitset.t array) ~site ~base ~fid
          ~is_write =
        (* descending-oid order, matching [Access.base_targets] *)
        O2_util.Bitset.fold
          (fun oid acc -> Flat.tid_field fl ~oid ~fid :: acc)
          pts.(base) []
        |> List.iter (fun tid ->
               compute_origin_sharing t ~site ~tid ~origin ~is_write;
               touch t origin (Flat.tid_oid fl tid))
      in
      let static_access ~site ~slot ~is_write =
        compute_origin_sharing t ~site
          ~tid:(Flat.tid_static fl slot)
          ~origin ~is_write;
        ignore n_st
      in
      let rec visit iid =
        if stamp.(iid) <> spi then begin
          stamp.(iid) <- spi;
          walk iid (Flat.meth fl icg.Solver.ic_mid.(iid))
        end
      and follow_calls iid sid =
        match
          Hashtbl.find_opt icg.Solver.ic_callees
            ((iid * icg.Solver.ic_nsids) + sid)
        with
        | Some arr -> Array.iter visit arr
        | None -> ()
      and walk iid (mi : Flat.meth_info) =
        let pts = icg.Solver.ic_pts.(iid) in
        let code = mi.Flat.f_code in
        let n = Array.length code in
        let i = ref 0 in
        while !i < n do
          let j = !i in
          let op = code.(j) in
          let sid = code.(j + 1) in
          incr n_scanned;
          if op = Flat.op_null then i := j + 2
          else if
            op = Flat.op_assign || op = Flat.op_awrite || op = Flat.op_aread
          then begin
            if op = Flat.op_awrite then
              field_access pts ~site:sid ~base:code.(j + 2)
                ~fid:fl.Flat.f_star ~is_write:true
            else if op = Flat.op_aread then
              field_access pts ~site:sid ~base:code.(j + 3)
                ~fid:fl.Flat.f_star ~is_write:false;
            i := j + 4
          end
          else if op = Flat.op_fwrite then begin
            field_access pts ~site:sid ~base:code.(j + 2) ~fid:code.(j + 3)
              ~is_write:true;
            i := j + 5
          end
          else if op = Flat.op_fread then begin
            field_access pts ~site:sid ~base:code.(j + 3) ~fid:code.(j + 4)
              ~is_write:false;
            i := j + 5
          end
          else if op = Flat.op_swrite then begin
            static_access ~site:sid ~slot:code.(j + 2) ~is_write:true;
            i := j + 4
          end
          else if op = Flat.op_sread then begin
            static_access ~site:sid ~slot:code.(j + 3) ~is_write:false;
            i := j + 4
          end
          else if op = Flat.op_new then begin
            follow_calls iid sid;
            i := j + 5 + code.(j + 4)
          end
          else if op = Flat.op_callv then begin
            follow_calls iid sid;
            i := j + 7 + code.(j + 6)
          end
          else if op = Flat.op_calls then begin
            follow_calls iid sid;
            i := j + 5 + code.(j + 4)
          end
          else if op = Flat.op_sync then i := j + 4 (* body inline *)
          else if op = Flat.op_if then i := j + 4
          else if op = Flat.op_while then i := j + 3
          else if op = Flat.op_start then i := j + 4
          else if
            op = Flat.op_join || op = Flat.op_signal || op = Flat.op_wait
          then i := j + 3
          else if op = Flat.op_post then i := j + 5 + code.(j + 4)
          else if op = Flat.op_return then i := j + 3
          else assert false
        done
      in
      visit icg.Solver.ic_entry.(sp.Solver.sp_id))
    a.Solver.spawns

let run ?metrics a =
  let t =
    {
      flat = a.Solver.flat;
      locs =
        (let fl = a.Solver.flat in
         let bound =
           Flat.n_statics fl
           + (Pag.n_objs a.Solver.pag * Flat.n_fields fl)
         in
         Array.make (max 1 bound) None);
      accesses = [];
      n_accesses = 0;
      touched = Hashtbl.create 16;
      n_objs = Pag.n_objs a.Solver.pag;
      key_of_spawn = Array.map (Solver.origin_of_spawn a) a.Solver.spawns;
    }
  in
  let n_scanned = ref 0 in
  let scan () = scan_flat a t n_scanned in
  (match metrics with
  | None -> scan ()
  | Some m -> O2_util.Metrics.span m "osa.scan" scan);
  (match metrics with
  | None -> ()
  | Some m ->
      let open O2_util in
      Metrics.set m "osa.stmts_scanned" !n_scanned;
      Metrics.set m "osa.accesses" t.n_accesses;
      Metrics.set m "osa.locations"
        (fold_locs t (fun _ _ acc -> acc + 1) 0);
      Metrics.set m "osa.shared_locations"
        (fold_locs t
           (fun tid s acc -> if is_shared (freeze t tid s) then acc + 1 else acc)
           0));
  t

let tid_opt t target = Access.tid_of t.flat target

let sharing_of t target =
  match tid_opt t target with
  | None -> None
  | Some tid -> Option.map (freeze t tid) t.locs.(tid)

let shared_locations t =
  fold_locs t
    (fun tid s acc ->
      let sh = freeze t tid s in
      if is_shared sh then sh :: acc else acc)
    []
  |> List.sort (fun a b -> Access.compare_target a.sh_target b.sh_target)

let is_shared_target t target =
  match sharing_of t target with Some sh -> is_shared sh | None -> false

let is_shared_tid t tid =
  match t.locs.(tid) with
  | Some s -> is_shared (freeze t tid s)
  | None -> false

let n_shared_accesses t =
  (* int-triple dedup; injective tids make the count the structural one *)
  List.filter (fun (_, tid, _, _) -> is_shared_tid t tid) t.accesses
  |> List.map (fun (site, tid, _, w) -> (site, tid, w))
  |> List.sort_uniq compare |> List.length

let n_shared_objects t =
  let fl = t.flat in
  fold_locs t
    (fun tid s acc ->
      if is_shared (freeze t tid s) then
        (if Flat.tid_is_static fl tid then
           `Static (Flat.class_name fl (Flat.static_cid fl tid))
         else `Obj (Flat.tid_oid fl tid))
        :: acc
      else acc)
    []
  |> List.sort_uniq compare |> List.length

let n_shared_object_sites a t =
  let fl = t.flat in
  fold_locs t
    (fun tid s acc ->
      if is_shared (freeze t tid s) then
        (if Flat.tid_is_static fl tid then
           `Static (Flat.class_name fl (Flat.static_cid fl tid))
         else
           let o = Pag.obj a.Solver.pag (Flat.tid_oid fl tid) in
           `Site o.Pag.ob_site)
        :: acc
      else acc)
    []
  |> List.sort_uniq compare |> List.length

let origin_local_objects t spawn_id =
  let fl = t.flat in
  let origin =
    if spawn_id >= 0 && spawn_id < Array.length t.key_of_spawn then
      t.key_of_spawn.(spawn_id)
    else spawn_id
  in
  let oids =
    Hashtbl.fold
      (fun key () acc ->
        if t.n_objs > 0 && key / t.n_objs = origin then (key mod t.n_objs) :: acc
        else acc)
      t.touched []
  in
  List.filter
    (fun oid ->
      let shared_somewhere =
        fold_locs t
          (fun tid s acc2 ->
            acc2
            || (not (Flat.tid_is_static fl tid))
               && Flat.tid_oid fl tid = oid
               &&
               let sh = freeze t tid s in
               let others =
                 List.filter
                   (fun og -> og <> origin)
                   (sh.sh_readers @ sh.sh_writers)
               in
               others <> [])
          false
      in
      not shared_somewhere)
    oids
  |> List.sort compare

let pp a ppf t =
  let sps = a.Solver.spawns in
  let name key =
    (* recover a representative spawn for an origin key *)
    let found = ref None in
    Array.iteri
      (fun i k -> if k = key && !found = None then found := Some i)
      t.key_of_spawn;
    match !found with
    | None -> Printf.sprintf "O%d" key
    | Some id ->
      let sp = sps.(id) in
      if sp.Solver.sp_kind = `Main then "Main"
      else
        Printf.sprintf "%s.%s@%d" sp.Solver.sp_entry.O2_ir.Program.m_class
          sp.Solver.sp_entry.O2_ir.Program.m_name sp.Solver.sp_site
  in
  Format.fprintf ppf "@[<v>origin-shared locations:@,";
  List.iter
    (fun sh ->
      Format.fprintf ppf "  %a  readers={%s} writers={%s}@,"
        (Access.pp_target a) sh.sh_target
        (String.concat "," (List.map name (List.sort compare sh.sh_readers)))
        (String.concat "," (List.map name (List.sort compare sh.sh_writers))))
    (shared_locations t);
  Format.fprintf ppf "@]"
