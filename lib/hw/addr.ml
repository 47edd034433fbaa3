type t = int

let page_size = 4096
let page_shift = 12
let word_size = 8
let page_shift_2m = 21
let page_shift_1g = 30
let page_size_2m = 1 lsl page_shift_2m
let page_size_1g = 1 lsl page_shift_1g
let pages_per_2m = page_size_2m / page_size
let pages_per_1g = page_size_1g / page_size
let lower_half_limit = 1 lsl 47
let higher_half_base = 1 lsl 47
let space_limit = 1 lsl 48

let is_lower_half a = a < lower_half_limit
let is_higher_half a = a >= higher_half_base && a < space_limit

let page_of a = a lsr page_shift
let base_of_page p = p lsl page_shift
let page_offset a = a land (page_size - 1)
let align_down a = a land lnot (page_size - 1)
let align_up a = (a + page_size - 1) land lnot (page_size - 1)
let is_page_aligned a = a land (page_size - 1) = 0
let is_2m_aligned a = a land (page_size_2m - 1) = 0
let is_1g_aligned a = a land (page_size_1g - 1) = 0

let pml4_index a = (a lsr 39) land 511
let pdpt_index a = (a lsr 30) land 511
let pd_index a = (a lsr 21) land 511
let pt_index a = (a lsr 12) land 511

let of_indices ~pml4 ~pdpt ~pd ~pt ~offset =
  (pml4 lsl 39) lor (pdpt lsl 30) lor (pd lsl 21) lor (pt lsl 12) lor offset

let canonical64 a =
  if a >= higher_half_base then Int64.logor (Int64.of_int a) 0xFFFF_0000_0000_0000L
  else Int64.of_int a

let pp ppf a = Format.fprintf ppf "0x%Lx" (canonical64 a)
