open O2_shb

type cycle = {
  dl_locks : int list;
  dl_origins : int list;
  dl_sites : int list;
}

type report = { cycles : cycle list }

let n_deadlocks r = List.length r.cycles

(* an edge l1 -> l2 with provenance *)
type edge = { e_from : int; e_to : int; e_origin : int; e_site : int }

let collect_edges g =
  (* replay each origin's trace; Acq/Rel nodes appear in id order *)
  let held : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let edges = ref [] in
  Array.iter
    (fun (n : Graph.node) ->
      let stack =
        match Hashtbl.find_opt held n.Graph.n_origin with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add held n.Graph.n_origin s;
            s
      in
      match n.Graph.n_kind with
      | Graph.Acq l ->
          List.iter
            (fun h ->
              if h <> l then
                edges :=
                  {
                    e_from = h;
                    e_to = l;
                    e_origin = n.Graph.n_origin;
                    e_site = n.Graph.n_sid;
                  }
                  :: !edges)
            !stack;
          stack := l :: !stack
      | Graph.Rel l -> (
          match !stack with
          | h :: rest when h = l -> stack := rest
          | _ -> stack := List.filter (fun h -> h <> l) !stack)
      | _ -> ())
    (Graph.nodes g);
  List.rev !edges

(* find simple 2-cycles and longer cycles via DFS on the lock-order graph;
   a cycle counts only if its edges come from >= 2 distinct origins (one
   origin acquiring in both orders deadlocks only with a second instance,
   which self-parallelism also covers) *)
let run g =
  let edges = collect_edges g in
  (* dedup edges by (from, to, origin) keeping first site *)
  let seen = Hashtbl.create 32 in
  let edges =
    List.filter
      (fun e ->
        let k = (e.e_from, e.e_to, e.e_origin) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      edges
  in
  let succs l = List.filter (fun e -> e.e_from = l) edges in
  let cycles = ref [] in
  let reported = Hashtbl.create 8 in
  (* bounded DFS from each lock looking for a path back to the start *)
  let rec dfs start path_edges visited l depth =
    if depth <= 4 then
      List.iter
        (fun e ->
          if e.e_to = start then begin
            let cyc = List.rev (e :: path_edges) in
            let origins =
              List.sort_uniq compare (List.map (fun e -> e.e_origin) cyc)
            in
            let self_par_ok =
              match origins with
              | [ o ] -> Graph.self_parallel g o
              | _ -> true
            in
            let locks = List.map (fun e -> e.e_from) cyc in
            let key = List.sort compare locks in
            if
              List.length origins >= 2 || self_par_ok && List.length origins = 1
            then
              if not (Hashtbl.mem reported key) then begin
                Hashtbl.add reported key ();
                cycles :=
                  {
                    dl_locks = locks;
                    dl_origins = origins;
                    dl_sites = List.map (fun e -> e.e_site) cyc;
                  }
                  :: !cycles
              end
          end
          else if not (List.mem e.e_to visited) then
            dfs start (e :: path_edges) (e.e_to :: visited) e.e_to (depth + 1))
        (succs l)
  in
  let locks =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges)
  in
  List.iter (fun l -> dfs l [] [ l ] l 1) locks;
  { cycles = List.rev !cycles }

let pp_cycle ppf c =
  Format.fprintf ppf "potential deadlock: locks [%s] acquired in a cycle by origins [%s] at stmts [%s]"
    (String.concat " -> " (List.map (fun l -> "o" ^ string_of_int l) c.dl_locks))
    (String.concat "," (List.map string_of_int c.dl_origins))
    (String.concat "," (List.map string_of_int c.dl_sites))
