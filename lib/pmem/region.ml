type t = { base : Addr.t; size : int }

let v ~base ~size =
  if base <= 0 || base mod Addr.cache_line_size <> 0 then
    invalid_arg "Region.v: base must be positive and cache-line aligned";
  if size <= 0 then invalid_arg "Region.v: size must be positive";
  if size > max_int - base then invalid_arg "Region.v: base + size overflows";
  { base; size }

(* [limit - a] cannot overflow once [a >= base > 0], where [a + n] can. *)
let contains r a n = n >= 0 && a >= r.base && n <= r.base + r.size - a
let limit r = r.base + r.size
let pp ppf r = Format.fprintf ppf "[%a, %a)" Addr.pp r.base Addr.pp (r.base + r.size)
