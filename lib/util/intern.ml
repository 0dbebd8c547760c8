module Make (H : Hashtbl.HashedType) = struct
  (* A bucket table that keeps each key's hash next to it: a probe compares
     the int hash before the structural [H.equal], which dominates on deep
     keys such as PAG nodes carrying contexts. *)
  type slot = { s_hash : int; s_key : H.t; s_id : int }

  type t = {
    mutable buckets : slot list array;  (* length always a power of two *)
    mutable values : H.t array;
    mutable next : int;
  }

  let create () = { buckets = Array.make 16 []; values = [||]; next = 0 }

  let find t ~hash v =
    let b = t.buckets.(hash land (Array.length t.buckets - 1)) in
    let rec go = function
      | [] -> -1
      | s :: tl ->
          if s.s_hash = hash && H.equal s.s_key v then s.s_id else go tl
    in
    go b

  let resize t =
    let old = t.buckets in
    let n' = Array.length old * 2 in
    let fresh = Array.make n' [] in
    Array.iter
      (List.iter (fun s ->
           let i = s.s_hash land (n' - 1) in
           fresh.(i) <- s :: fresh.(i)))
      old;
    t.buckets <- fresh

  let intern t v =
    let hash = H.hash v in
    match find t ~hash v with
    | id when id >= 0 -> id
    | _ ->
        let id = t.next in
        t.next <- id + 1;
        if id > 2 * Array.length t.buckets then resize t;
        let i = hash land (Array.length t.buckets - 1) in
        t.buckets.(i) <- { s_hash = hash; s_key = v; s_id = id } :: t.buckets.(i);
        let cap = Array.length t.values in
        if id >= cap then begin
          let a = Array.make (max 8 (cap * 2)) v in
          Array.blit t.values 0 a 0 cap;
          t.values <- a
        end;
        t.values.(id) <- v;
        id

  let find_opt t v =
    match find t ~hash:(H.hash v) v with
    | -1 -> None
    | id -> Some id

  let value t id =
    if id < 0 || id >= t.next then invalid_arg "Intern.value: unknown id";
    t.values.(id)

  let count t = t.next

  let iter f t =
    for id = 0 to t.next - 1 do
      f id t.values.(id)
    done
end
