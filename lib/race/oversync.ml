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

let run a osa =
  let findings = ref [] in
  Array.iter
    (fun (sp : Solver.spawn) ->
      let check_region m ctx (sync_stmt : Ast.stmt) region =
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
                      if O2_osa.Osa.is_shared_target osa t then
                        all_local := false)
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
      Walk.iter_origin a sp (fun m ctx s ->
          match s.Ast.sk with
          | Ast.Sync (_, region) -> check_region m ctx s region
          | _ -> ()))
    a.Solver.spawns;
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
