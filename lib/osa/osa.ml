open O2_ir
open O2_pta
open O2_util

type sharing = {
  sh_target : Access.target;
  sh_readers : int list;
  sh_writers : int list;
  sh_self_par : bool;
}

(* a writer, and two accessors: a self-parallel origin is two on its own,
   otherwise some accessor differs from the first writer — no sort, no
   append. Race detection keeps a target group by the same rule. *)
let shared_lists readers writers self_par =
  match writers with
  | [] -> false
  | w :: _ ->
      self_par
      || List.exists (fun o -> o <> w) writers
      || List.exists (fun o -> o <> w) readers

let is_shared sh = shared_lists sh.sh_readers sh.sh_writers sh.sh_self_par

type mut_sharing = {
  mutable readers : int list;
  mutable writers : int list;
  mutable self_par : bool;  (* some accessor is a self-parallel origin *)
}

(* Internally everything is keyed by flat location id (tid) — the scan
   table probes ints, never structural targets. The target-typed public
   queries encode/decode at the boundary; the tid encoding is injective,
   so every count and set below matches a structural-keyed scan. *)
type t = {
  flat : Flat.t;
  locs : mut_sharing option array;  (* tid-indexed; None = never accessed *)
  n_keys : int;  (* exclusive bound of the origin keys *)
  recorded : unit Inttbl.t;
      (* the (tid, origin, kind) triples already in [locs], packed as
         [access_key]: one probe replaces a scan of the location's
         reader or writer list *)
  (* every access as a packed [site_key], for #S-access *)
  mutable accesses : int list;
  mutable n_accesses : int;
  (* objects touched per origin, keyed [origin * n_objs + oid] *)
  touched : unit Inttbl.t;
  n_objs : int;
  (* canonical origin key per spawn id *)
  mutable key_of_spawn : int array;
}

let loc t tid =
  match t.locs.(tid) with
  | Some s -> s
  | None ->
      let s = { readers = []; writers = []; self_par = false } in
      t.locs.(tid) <- Some s;
      s

let fold_locs t f acc =
  let r = ref acc in
  Array.iteri
    (fun tid s -> match s with Some s -> r := f tid s !r | None -> ())
    t.locs;
  !r

(* Mixed-radix packings; [run] checks once that the largest code fits an
   int, so neither can alias two distinct triples. *)
let access_key t ~tid ~origin ~is_write =
  (((tid * t.n_keys) + origin) lsl 1) lor Bool.to_int is_write

let site_key t ~site ~tid ~is_write =
  (((site * Array.length t.locs) + tid) lsl 1) lor Bool.to_int is_write

(* ComputeOriginSharing(s, f, O, isWrite) of Algorithm 1 *)
let compute_origin_sharing t ~site ~tid ~origin ~self_par ~is_write =
  let s = loc t tid in
  if self_par then s.self_par <- true;
  let k = access_key t ~tid ~origin ~is_write in
  if not (Inttbl.mem t.recorded k) then begin
    Inttbl.add t.recorded k ();
    if is_write then s.writers <- origin :: s.writers
    else s.readers <- origin :: s.readers
  end;
  t.accesses <- site_key t ~site ~tid ~is_write :: t.accesses;
  t.n_accesses <- t.n_accesses + 1

let touch t origin oid =
  Inttbl.replace t.touched ((origin * t.n_objs) + oid) ()

let loc_shared s = shared_lists s.readers s.writers s.self_par

let freeze t tid (s : mut_sharing) =
  {
    sh_target = Access.of_tid t.flat tid;
    sh_readers = s.readers;
    sh_writers = s.writers;
    sh_self_par = s.self_par;
  }

(* The scan of Algorithm 1: every access the origin walker reports, one
   per location ({!Walk.iter_origins}); it returns the instructions
   scanned. *)
let scan ?budget a t =
  let fl = a.Solver.flat in
  (* one handler record for every origin: the current one's key and
     self-parallelism sit in these cells *)
  let origin = ref 0 and self_par = ref false in
  let h =
    {
      Walk.ignore_all with
      access =
        (fun site tid is_write ->
          compute_origin_sharing t ~site ~tid ~origin:!origin
            ~self_par:!self_par ~is_write;
          if not (Flat.tid_is_static fl tid) then
            touch t !origin (Flat.tid_oid fl tid));
    }
  in
  Walk.iter_origins ?budget a (fun sp ->
      origin := Solver.origin_of_spawn a sp;
      self_par := Solver.self_parallel a sp.Solver.sp_id;
      h)

let run ?metrics ?budget a =
  let fl = a.Solver.flat in
  let n_locs =
    max 1 (Flat.n_statics fl + (Pag.n_objs a.Solver.pag * Flat.n_fields fl))
  in
  let key_of_spawn = Array.map (Solver.origin_of_spawn a) a.Solver.spawns in
  let n_keys = 1 + Array.fold_left max 0 key_of_spawn in
  let n_sites = max 1 a.Solver.icg.Solver.ic_nsids in
  if n_locs > max_int / 2 / max n_keys n_sites then
    invalid_arg "Osa.run: too many locations for the packed access keys";
  let t =
    {
      flat = fl;
      locs = Array.make n_locs None;
      n_keys;
      recorded = Inttbl.create 1024;
      accesses = [];
      n_accesses = 0;
      touched = Inttbl.create 16;
      n_objs = Pag.n_objs a.Solver.pag;
      key_of_spawn;
    }
  in
  (match metrics with
  | None -> ignore (scan ?budget a t)
  | Some m ->
      let n_scanned = Metrics.span m "osa.scan" (fun () -> scan ?budget a t) in
      Metrics.set m "osa.stmts_scanned" n_scanned;
      Metrics.set m "osa.accesses" t.n_accesses;
      Metrics.set m "osa.locations"
        (fold_locs t (fun _ _ acc -> acc + 1) 0);
      Metrics.set m "osa.shared_locations"
        (fold_locs t (fun _ s acc -> if loc_shared s then acc + 1 else acc) 0));
  t

let tid_opt t target = Access.tid_of t.flat target

let sharing_of t target =
  match tid_opt t target with
  | None -> None
  | Some tid -> Option.map (freeze t tid) t.locs.(tid)

let shared_locations t =
  fold_locs t
    (fun tid s acc -> if loc_shared s then freeze t tid s :: acc else acc)
    []
  |> List.sort (fun a b -> Access.compare_target a.sh_target b.sh_target)

let is_shared_tid t tid =
  match t.locs.(tid) with Some s -> loc_shared s | None -> false

let is_shared_target t target =
  match tid_opt t target with Some tid -> is_shared_tid t tid | None -> false

let n_shared_accesses t =
  (* sharedness decided once per location, then one pass deduplicating the
     packed site keys; injective tids make the count the structural one *)
  let n_locs = Array.length t.locs in
  let shared =
    Array.map (function Some s -> loc_shared s | None -> false) t.locs
  in
  let seen = Inttbl.create 1024 in
  List.iter
    (fun k -> if shared.((k lsr 1) mod n_locs) then Inttbl.replace seen k ())
    t.accesses;
  Inttbl.length seen

let n_shared_objects t =
  let fl = t.flat in
  fold_locs t
    (fun tid s acc ->
      if loc_shared s then
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
      if loc_shared s then
        (if Flat.tid_is_static fl tid then
           `Static (Flat.class_name fl (Flat.static_cid fl tid))
         else
           let o = Pag.obj a.Solver.pag (Flat.tid_oid fl tid) in
           `Site o.Pag.ob_site)
        :: acc
      else acc)
    []
  |> List.sort_uniq compare |> List.length

(* One pass over the locations marks every object another origin (or a
   self-parallel one) also accesses; the origin's touched objects are then
   filtered by that mark: O(locations + touched) per call. *)
let origin_local_objects t spawn_id =
  let fl = t.flat in
  let origin =
    if spawn_id >= 0 && spawn_id < Array.length t.key_of_spawn then
      t.key_of_spawn.(spawn_id)
    else spawn_id
  in
  let foreign = Array.make t.n_objs false in
  Array.iteri
    (fun tid s ->
      match s with
      | Some s
        when (not (Flat.tid_is_static fl tid))
             && (s.self_par
                || List.exists (fun og -> og <> origin) s.readers
                || List.exists (fun og -> og <> origin) s.writers) ->
          foreign.(Flat.tid_oid fl tid) <- true
      | _ -> ())
    t.locs;
  Inttbl.fold
    (fun key () acc ->
      let oid = key mod t.n_objs in
      if key / t.n_objs = origin && not foreign.(oid) then oid :: acc else acc)
    t.touched []
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
