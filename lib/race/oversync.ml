open O2_ir
open O2_pta

type finding = {
  ov_site : int;
  ov_pos : Types.pos;
  ov_origin : int;
  ov_accesses : int;
}

type report = { findings : finding list }

let n_findings r = List.length r.findings

let run g osa =
  let a = O2_shb.Graph.solver g in
  (* OSA counts origins, so it calls a location touched by one
     self-parallel origin local; that origin's instances are two
     accessors, and a writer among them makes the location shared all the
     same. OSA's lists hold origin keys, hence the spawn → key map. *)
  let self_par =
    Array.fold_left
      (fun acc (sp : Solver.spawn) ->
        if O2_shb.Graph.self_parallel g sp.Solver.sp_id then
          Solver.origin_of_spawn a sp :: acc
        else acc)
      [] a.Solver.spawns
  in
  let needs_lock t =
    O2_osa.Osa.is_shared_target osa t
    ||
    match O2_osa.Osa.sharing_of osa t with
    | Some s ->
        s.O2_osa.Osa.sh_writers <> []
        && List.exists
             (fun o -> List.mem o self_par)
             (s.O2_osa.Osa.sh_readers @ s.O2_osa.Osa.sh_writers)
    | None -> false
  in
  let findings = ref [] in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let visited = Hashtbl.create 32 in
      let rec visit (m : Program.meth) ctx =
        let key = (m.Program.m_class, m.Program.m_name, ctx) in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key ();
          body m ctx m.Program.m_body
        end
      and body m ctx stmts =
        List.iter
          (fun (s : Ast.stmt) ->
            match s.Ast.sk with
            | Ast.Sync (_, region) ->
                check_region m ctx s region;
                body m ctx region
            | Ast.If (b1, b2) ->
                body m ctx b1;
                body m ctx b2
            | Ast.While b -> body m ctx b
            | Ast.Call _ | Ast.StaticCall _ | Ast.New _ ->
                List.iter
                  (fun (callee, cctx) -> visit callee cctx)
                  (Solver.callees a ~site:s.Ast.sid ~ctx)
            | _ -> ())
          stmts
      and check_region m ctx (sync_stmt : Ast.stmt) region =
        (* direct accesses of the region (not through calls: a callee may be
           shared with unlocked paths, where the lock could still matter) *)
        let n_accesses = ref 0 in
        let all_local = ref true in
        let rec scan stmts =
          List.iter
            (fun (s : Ast.stmt) ->
              (match Access.of_stmt a m ctx s with
              | Some (targets, _) ->
                  List.iter
                    (fun t ->
                      incr n_accesses;
                      if needs_lock t then all_local := false)
                    targets
              | None -> ());
              match s.Ast.sk with
              | Ast.Sync (_, b) | Ast.While b -> scan b
              | Ast.If (b1, b2) ->
                  scan b1;
                  scan b2
              | Ast.Call _ | Ast.StaticCall _ | Ast.New _ ->
                  (* conservatively treat regions with calls as useful *)
                  all_local := false
              | _ -> ())
            stmts
        in
        scan region;
        if !n_accesses > 0 && !all_local then
          findings :=
            {
              ov_site = sync_stmt.Ast.sid;
              ov_pos = sync_stmt.Ast.pos;
              ov_origin = sp.Solver.sp_id;
              ov_accesses = !n_accesses;
            }
            :: !findings
      in
      visit sp.Solver.sp_entry sp.Solver.sp_ectx)
    (a.Solver.spawns);
  (* dedup by site (several origins may run the same region) *)
  let seen = Hashtbl.create 8 in
  {
    findings =
      List.rev !findings
      |> List.filter (fun f ->
             if Hashtbl.mem seen f.ov_site then false
             else begin
               Hashtbl.add seen f.ov_site ();
               true
             end);
  }

let pp_finding ppf f =
  Format.fprintf ppf
    "over-synchronization at %a: the lock guards %d access(es), all on \
     origin-local data"
    Types.pp_pos f.ov_pos f.ov_accesses
