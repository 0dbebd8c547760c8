open O2_ir
open O2_pta
open O2_shb
open O2_race

type divergence = { dv_class : string; dv_detail : string }

type dynamic_status = [ `Ran of int | `Skipped | `Runtime_error of string ]

type outcome = {
  o_divergences : divergence list;
  o_races : int;
  o_origins : int;
  o_stmts : int;
  o_dynamic : dynamic_status;
  o_naive_ran : bool;
  o_must_pairs : int;
}

let pp_divergence ppf d =
  Format.fprintf ppf "[%s] %s" d.dv_class d.dv_detail

(* ---------------- small helpers ---------------- *)

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> "byte lengths differ"
    | x :: _, [] -> Printf.sprintf "line %d only in first: %S" i x
    | [], y :: _ -> Printf.sprintf "line %d only in second: %S" i y
    | x :: la, y :: lb ->
        if String.equal x y then go (i + 1) la lb
        else Printf.sprintf "line %d: %S vs %S" i x y
  in
  go 1 la lb

let field_of_target = Ref_stages.field_of_target

let sid_pair (r : Detect.race) =
  ( min r.Detect.r_a.Graph.n_sid r.Detect.r_b.Graph.n_sid,
    max r.Detect.r_a.Graph.n_sid r.Detect.r_b.Graph.n_sid )

(* (target, unordered sid pair) — the site-level identity of a race *)
let race_site (r : Detect.race) =
  let a, b = sid_pair r in
  (r.Detect.r_target, a, b)

let race_sites report =
  List.map race_site report.Detect.races |> List.sort_uniq compare

(* ---------------- RacerD must-race subset ---------------- *)

(* The subset of O2 races RacerD is guaranteed to warn about, derived from
   its syntactic rules: both endpoints recorded (base var not owned by its
   enclosing method, not [this] inside [init]), under two distinct roots
   (different origin entry methods, both in RacerD's root set), with
   distinct statement ids, the same syntactic field key on both sides, and
   not both endpoints syntactically inside [sync] in their own methods.
   RacerD's name-based call closure from a root is a superset of O2's
   points-to call chains from the same entry, so every such pair must
   appear among its warnings. *)
module Must = struct
  (* mirrors Racerd.owned_vars: assigned from New at some point and not
     subsequently reassigned from elsewhere (program order) *)
  let owned_vars (m : Program.meth) =
    let owned = Hashtbl.create 8 in
    Ast.iter_stmts
      (fun s ->
        match s.Ast.sk with
        | Ast.New (x, _, _) -> Hashtbl.replace owned x ()
        | Ast.Assign (x, _)
        | Ast.Null x
        | Ast.FieldRead (x, _, _)
        | Ast.ArrayRead (x, _)
        | Ast.StaticRead (x, _, _) ->
            if Hashtbl.mem owned x then Hashtbl.remove owned x
        | _ -> ())
      m.Program.m_body;
    owned

  (* syntactic view of an access statement inside its enclosing method *)
  type info = {
    i_base : string option;
    i_field : string;
    i_in_sync : bool;
    i_meth : Program.meth;
  }

  let info_of p sid =
    let stmt, m = Program.stmt p sid in
    let found = ref None in
    let rec walk ~in_sync stmts =
      List.iter
        (fun (s : Ast.stmt) ->
          (if s.Ast.sid = sid then
             let mk base field =
               found :=
                 Some
                   { i_base = base; i_field = field; i_in_sync = in_sync;
                     i_meth = m }
             in
             match s.Ast.sk with
             | Ast.FieldWrite (x, f, _) -> mk (Some x) f
             | Ast.FieldRead (_, y, f) -> mk (Some y) f
             | Ast.ArrayWrite (x, _) -> mk (Some x) "*"
             | Ast.ArrayRead (_, y) -> mk (Some y) "*"
             | Ast.StaticWrite (c, f, _) -> mk None (c ^ "::" ^ f)
             | Ast.StaticRead (_, c, f) -> mk None (c ^ "::" ^ f)
             | _ -> ());
          match s.Ast.sk with
          | Ast.Sync (_, b) -> walk ~in_sync:true b
          | Ast.If (b1, b2) ->
              walk ~in_sync b1;
              walk ~in_sync b2
          | Ast.While b -> walk ~in_sync b
          | _ -> ())
        stmts
    in
    ignore stmt;
    walk ~in_sync:false m.Program.m_body;
    !found

  (* RacerD's roots, replicated: main + every thread/handler entry *)
  let roots p =
    let tbl = Hashtbl.create 8 in
    let add (m : Program.meth) =
      Hashtbl.replace tbl (m.Program.m_class, m.Program.m_name) ()
    in
    add (Program.main p);
    List.iter
      (fun (cls : Program.cls) ->
        match Program.kind_of p cls.Program.c_name with
        | Program.Kthread _ | Program.Khandler _ -> (
            match Program.entry_method p cls.Program.c_name with
            | Some m -> add m
            | None -> ())
        | Program.Kplain -> ())
      (Program.classes p);
    tbl

  let recorded info =
    match info.i_base with
    | None -> true
    | Some v ->
        (not (Hashtbl.mem (owned_vars info.i_meth) v))
        && not (info.i_meth.Program.m_name = "init" && v = "this")

  (* [must_pairs p a report] lists the (field, sid_a, sid_b) triples RacerD
     must warn about, given O2's unmerged race report *)
  let must_pairs p (a : Solver.result) (report : Detect.report) =
    let root_set = roots p in
    let entry_of origin =
      let sp = a.Solver.spawns.(origin) in
      (sp.Solver.sp_entry.Program.m_class, sp.Solver.sp_entry.Program.m_name)
    in
    List.filter_map
      (fun (r : Detect.race) ->
        let sa = r.Detect.r_a.Graph.n_sid
        and sb = r.Detect.r_b.Graph.n_sid in
        let ea = entry_of r.Detect.r_a.Graph.n_origin
        and eb = entry_of r.Detect.r_b.Graph.n_origin in
        if sa = sb || ea = eb then None
        else if
          not (Hashtbl.mem root_set ea && Hashtbl.mem root_set eb)
        then None
        else
          match (info_of p sa, info_of p sb) with
          | Some ia, Some ib
            when String.equal ia.i_field ib.i_field
                 && (not (ia.i_in_sync && ib.i_in_sync))
                 && recorded ia && recorded ib ->
              Some (ia.i_field, min sa sb, max sa sb)
          | _ -> None)
      report.Detect.races
    |> List.sort_uniq compare
end

(* ---------------- the six-engine check ---------------- *)

let check ?policy ?budget ?(naive_max_stmts = 1500) ?(dynamic_max_stmts = 400)
    ?(dynamic_seeds = [ 0; 1; 2; 3 ]) ?(dynamic_max_steps = 20_000) p =
  let policy = Option.value policy ~default:(Context.Korigin 1) in
  let n_stmts = Program.n_stmts p in
  let divergences = ref [] in
  let add c d = divergences := { dv_class = c; dv_detail = d } :: !divergences in
  let tick () =
    match budget with Some b -> O2_util.Budget.check b ~steps:0 | None -> ()
  in
  let guard stage f =
    try Some (f ()) with
    | O2_util.Budget.Exhausted _ as e -> raise e
    | e -> add "crash" (stage ^ ": " ^ Printexc.to_string e); None
  in
  (* 1. printer ↔ parser round trip: render → parse → render must be
     byte-identical *)
  (match guard "render" (fun () -> Pp.program_to_string p) with
  | None -> ()
  | Some src -> (
      match O2_frontend.Parser.parse_string src with
      | exception e ->
          add "roundtrip"
            ("rendered program does not re-parse: " ^ Printexc.to_string e)
      | p2 ->
          let src2 = Pp.program_to_string p2 in
          if not (String.equal src src2) then
            add "roundtrip" (first_diff src src2)));
  tick ();
  (* 2. one shared solve; on the merged graph every post-PTA stage agrees
     with its reference engine *)
  let solved =
    match budget with
    | Some b -> Solver.analyze ~policy ~budget:b p
    | None -> Solver.analyze ~policy p
  in
  (* the solve's facts equal the reference solver's *)
  tick ();
  (match
     guard "reference pta" (fun () ->
         (Solver.fingerprint solved, Ref_pta.(fingerprint (analyze ~policy p))))
   with
  | Some (got, want) when not (String.equal got want) ->
      add "pta" ("engine vs reference: " ^ first_diff got want)
  | _ -> ());
  tick ();
  let pipeline lock_region =
    guard
      (Printf.sprintf "detect (lock_region=%b)" lock_region)
      (fun () ->
        let g = Graph.build ~lock_region solved in
        (g, Detect.run g))
  in
  let flat = pipeline true in
  tick ();
  (match flat with
  | Some (g, r) -> (
      match
        guard "reference stages" (fun () ->
            Ref_stages.check ?budget solved g r)
      with
      | Some diffs ->
          List.iter (fun (stage, d) -> add "oracle" (stage ^ ": " ^ d)) diffs
      | None -> ())
  | None -> ());
  tick ();
  (* 3/4. merged and unmerged graphs: the pairwise-DFS naive engine finds
     the same witnesses on each, and merged ⊆ unmerged *)
  let unmerged = pipeline false in
  tick ();
  let naive_ran = ref false in
  let must_pairs = ref 0 in
  if n_stmts <= naive_max_stmts then begin
    naive_ran := true;
    List.iter
      (fun (lock_region, run) ->
        match run with
        | None -> ()
        | Some (g, fast) -> (
            match guard "naive detect" (fun () -> O2_race.Naive.run g) with
            | Some naive when naive.Detect.races <> fast.Detect.races ->
                add "naive"
                  (Printf.sprintf
                     "lock_region=%b: pairwise-DFS witnesses (%d) differ from \
                      optimized (%d)"
                     lock_region
                     (List.length naive.Detect.races)
                     (List.length fast.Detect.races))
            | _ -> ()))
      [ (true, flat); (false, unmerged) ];
    tick ()
  end;
  let flat = Option.map snd flat and unmerged = Option.map snd unmerged in
  (match unmerged with
  | None -> ()
  | Some fast_u ->
      (match flat with
      | Some merged ->
          let su = race_sites merged and all = race_sites fast_u in
          List.iter
            (fun site ->
              if not (List.mem site all) then
                let t, a, b = site in
                add "lock-region"
                  (Printf.sprintf
                     "merged race %s (%d,%d) absent from the unmerged report"
                     (field_of_target t) a b))
            su;
          let fields r =
            List.map
              (fun (x : Detect.race) -> field_of_target x.Detect.r_target)
              r.Detect.races
            |> List.sort_uniq compare
          in
          if fields merged <> fields fast_u then
            add "lock-region" "merged and unmerged field sets differ"
      | None -> ());
      (* 5. RacerD must-race subset *)
      (match
         guard "racerd" (fun () ->
             let must = Must.must_pairs p solved fast_u in
             must_pairs := List.length must;
             if must = [] then []
             else
               let rd = O2_racerd.Racerd.analyze p in
               let warned =
                 List.map
                   (fun (w : O2_racerd.Racerd.warning) ->
                     ( w.O2_racerd.Racerd.w_field,
                       min w.O2_racerd.Racerd.w_sid_a
                         w.O2_racerd.Racerd.w_sid_b,
                       max w.O2_racerd.Racerd.w_sid_a
                         w.O2_racerd.Racerd.w_sid_b ))
                   rd.O2_racerd.Racerd.warnings
               in
               List.filter (fun m -> not (List.mem m warned)) must)
       with
      | None | Some [] -> ()
      | Some missing ->
          List.iter
            (fun (f, a, b) ->
              add "racerd"
                (Printf.sprintf
                   "must-race on %s (stmts %d,%d) missing from RacerD" f a b))
            missing);
      tick ());
  (* 6. dynamic witnesses ⊆ static reports (unmerged site pairs, merged
     fields — the lock-region merge keeps fields, not exact sites) *)
  let dynamic =
    if n_stmts > dynamic_max_stmts then `Skipped
    else
      match unmerged with
      | None -> `Skipped
      | Some fast_u -> (
          match
            O2_runtime.Dynrace.check ~seeds:dynamic_seeds
              ~max_steps:dynamic_max_steps p
          with
          | exception O2_runtime.Interp.Runtime_error msg ->
              `Runtime_error msg
          | drs ->
              let stat =
                List.map sid_pair fast_u.Detect.races |> List.sort_uniq compare
              in
              let fields =
                List.map
                  (fun (x : Detect.race) -> field_of_target x.Detect.r_target)
                  fast_u.Detect.races
                |> List.sort_uniq compare
              in
              List.iter
                (fun (d : O2_runtime.Dynrace.race) ->
                  if
                    not
                      (List.mem (d.O2_runtime.Dynrace.d_sid_a,
                                 d.O2_runtime.Dynrace.d_sid_b)
                         stat
                      && List.mem d.O2_runtime.Dynrace.d_field fields)
                  then
                    add "dynamic"
                      (Printf.sprintf
                         "dynamic race on %s (stmts %d,%d) not statically \
                          reported"
                         d.O2_runtime.Dynrace.d_field
                         d.O2_runtime.Dynrace.d_sid_a
                         d.O2_runtime.Dynrace.d_sid_b))
                drs;
              `Ran (List.length drs))
  in
  let races =
    match flat with Some r -> Detect.n_races r | None -> 0
  in
  {
    o_divergences = List.rev !divergences;
    o_races = races;
    o_origins = Array.length solved.Solver.spawns - 1;
    o_stmts = n_stmts;
    o_dynamic = dynamic;
    o_naive_ran = !naive_ran;
    o_must_pairs = !must_pairs;
  }
