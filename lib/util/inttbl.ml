include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* [Hashtbl.Make] picks the bucket from the hash's low bits, and the low
     bits of a product depend only on the factor's low bits: the xor-shift
     folds the product's high half (where every key bit lands) back down. *)
  let hash x =
    let h = x * 0x9e3779b1 in
    (h lxor (h lsr 32)) land max_int
end)
