open O2_pta
open O2_shb

(* Explicit node-level successor graph: program-order edges within each
   origin trace, spawn edges into child traces, join edges back. *)
type edges = { succ : (int, int list) Hashtbl.t }

let build_edges g =
  let succ = Hashtbl.create 1024 in
  let add a b =
    let l = match Hashtbl.find_opt succ a with Some l -> l | None -> [] in
    Hashtbl.replace succ a (b :: l)
  in
  let nodes = Graph.nodes g in
  (* intra-origin program-order chains *)
  let last_of_origin = Hashtbl.create 16 in
  let first_of_origin = Hashtbl.create 16 in
  Array.iter
    (fun (n : Graph.node) ->
      (match Hashtbl.find_opt last_of_origin n.Graph.n_origin with
      | Some prev -> add prev n.Graph.n_id
      | None -> Hashtbl.add first_of_origin n.Graph.n_origin n.Graph.n_id);
      Hashtbl.replace last_of_origin n.Graph.n_origin n.Graph.n_id)
    nodes;
  (* inter-origin edges *)
  List.iter
    (fun (_, child, node_id) ->
      match Hashtbl.find_opt first_of_origin child with
      | Some first -> add node_id first
      | None -> ())
    (Graph.spawn_edges g);
  List.iter
    (fun (child, _, node_id) ->
      match Hashtbl.find_opt last_of_origin child with
      | Some last -> add last node_id
      | None -> ())
    (Graph.join_edges g);
  List.iter
    (fun (_, sig_id, _, wait_id) -> add sig_id wait_id)
    (Graph.sem_edges g);
  { succ }

let dfs_reachable edges src dst =
  let visited = Hashtbl.create 64 in
  let rec go n =
    n = dst
    || (not (Hashtbl.mem visited n))
       && begin
            Hashtbl.add visited n ();
            match Hashtbl.find_opt edges.succ n with
            | Some l -> List.exists go l
            | None -> false
          end
  in
  match Hashtbl.find_opt edges.succ src with
  | Some l -> List.exists go l
  | None -> false

let run g =
  let locks = Graph.locks g in
  let edges = build_edges g in
  let lockset_elems ls = Lockset.elements locks ls in
  let disjoint a b =
    (* deliberate: raw list intersection, no canonical-id cache *)
    let la = lockset_elems a and lb = lockset_elems b in
    not (List.exists (fun l -> List.mem l lb) la)
  in
  let groups : (int, Graph.node list ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (n : Graph.node) ->
      match n.Graph.n_kind with
      | Graph.Read t | Graph.Write t -> (
          match Hashtbl.find_opt groups t with
          | Some l -> l := n :: !l
          | None -> Hashtbl.add groups t (ref [ n ]))
      | _ -> ())
    (Graph.accesses g);
  let is_write (n : Graph.node) =
    match n.Graph.n_kind with Graph.Write _ -> true | _ -> false
  in
  let n_pairs = ref 0 and n_hb = ref 0 and n_lock = ref 0 in
  let races = ref [] in
  Hashtbl.iter
    (fun tid group ->
      let target = Graph.target_of g tid in
      let ns = Array.of_list !group in
      let len = Array.length ns in
      for i = 0 to len - 1 do
        let a = ns.(i) in
        if
          is_write a
          && Graph.self_parallel g a.Graph.n_origin
          && lockset_elems a.Graph.n_lockset = []
        then begin
          incr n_pairs;
          races := { Detect.r_target = target; r_a = a; r_b = a } :: !races
        end;
        for j = i + 1 to len - 1 do
          let a = ns.(i) and b = ns.(j) in
          if is_write a || is_write b then begin
            let same_origin = a.Graph.n_origin = b.Graph.n_origin in
            let candidate =
              if same_origin then Graph.self_parallel g a.Graph.n_origin
              else true
            in
            if candidate then begin
              incr n_pairs;
              let hb_usable =
                (not (Graph.self_parallel g a.Graph.n_origin))
                && not (Graph.self_parallel g b.Graph.n_origin)
              in
              if not (disjoint a.Graph.n_lockset b.Graph.n_lockset) then
                incr n_lock
              else if
                (not same_origin)
                &&
                (* the straw-man engine runs its graph traversal for every
                   conflicting pair — that cost is the point of the
                   baseline; the self-parallel soundness filter only
                   decides whether the result may prune *)
                let ordered =
                  dfs_reachable edges a.Graph.n_id b.Graph.n_id
                  || dfs_reachable edges b.Graph.n_id a.Graph.n_id
                in
                hb_usable && ordered
              then incr n_hb
              else
                let a, b =
                  if a.Graph.n_id <= b.Graph.n_id then (a, b) else (b, a)
                in
                races :=
                  { Detect.r_target = target; r_a = a; r_b = b } :: !races
            end
          end
        done
      done)
    groups;
  let races =
    List.sort
      (fun (r1 : Detect.race) (r2 : Detect.race) ->
        compare
          (r1.Detect.r_a.Graph.n_id, r1.Detect.r_b.Graph.n_id)
          (r2.Detect.r_a.Graph.n_id, r2.Detect.r_b.Graph.n_id))
      !races
  in
  let seen = Hashtbl.create 64 in
  let races =
    List.filter
      (fun (r : Detect.race) ->
        let a = r.Detect.r_a.Graph.n_sid and b = r.Detect.r_b.Graph.n_sid in
        let f =
          match r.Detect.r_target with
          | Access.Tfield (_, f) -> f
          | Access.Tstatic (c, f) -> c ^ "::" ^ f
        in
        let k = ((min a b, max a b), f) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      races
  in
  {
    Detect.races;
    n_pairs_checked = !n_pairs;
    n_hb_pruned = !n_hb;
    n_lock_pruned = !n_lock;
    n_class_pruned = 0;
  }
