# ISA check of the AVX2 kernel translation unit (ctest entry
# kernels_isa_clean, label `kernels`).
#
# Compiles src/core/kernels/kernels_avx2.cpp as an object at -O0, with the
# per-file options the library build gives it, and disassembles it. At -O0
# nothing is inlined, so every inline function the file calls from a shared
# header (libm wrappers, Rng, <algorithm>) is emitted as a weak out-of-line
# copy, and the linker keeps one copy for the whole program. A copy with
# VEX-encoded instructions would fault in scalar callers on an x86 CPU
# without AVX. The check fails when any function outside the
# tofmcl::core::kernels namespace holds a VEX- or EVEX-encoded instruction
# (its mnemonic starts with "v" in objdump's AT&T output; the legacy
# mnemonics starting with "v" are the VMX and verr/verw ones, excluded).
#
#   cmake -DCXX=<compiler> -DSOURCE=<kernels_avx2.cpp> -DINCLUDE=<src dir>
#         -DOPTIONS=<per-file options> -DOBJECT=<output .o>
#         -DOBJDUMP=<objdump> -P kernels_isa_clean.cmake

foreach(var CXX SOURCE INCLUDE OBJECT OBJDUMP)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "kernels_isa_clean: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${CXX} -std=c++20 -O0 ${OPTIONS} -DTOFMCL_KERNELS_AVX2=1
          -I${INCLUDE} -c ${SOURCE} -o ${OBJECT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kernels_isa_clean: compiling ${SOURCE} failed")
endif()
execute_process(
  COMMAND ${OBJDUMP} -d --no-show-raw-insn ${OBJECT}
  OUTPUT_VARIABLE dump
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kernels_isa_clean: ${OBJDUMP} -d ${OBJECT} failed")
endif()

# Mangled names: a function of the kernels namespace, or a local entity
# (lambda, static) of one, starts with one of these prefixes.
set(kernel_prefix "^_ZZ?N6tofmcl4core7kernels")
string(CONCAT legacy_v "^(verr|verw|vmcall|vmclear|vmfunc|vmlaunch|"
                      "vmptrld|vmptrst|vmread|vmresume|vmwrite|vmxoff|vmxon)$")
string(REPLACE "\n" ";" lines "${dump}")
set(function "")
set(kernel_functions 0)
set(offenders "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
    set(function "${CMAKE_MATCH_1}")
    if(function MATCHES "${kernel_prefix}")
      math(EXPR kernel_functions "${kernel_functions} + 1")
    endif()
  elseif(line MATCHES "^ *[0-9a-f]+:\t({[a-z0-9]+} )?(v[a-z0-9]+)")
    if(NOT CMAKE_MATCH_2 MATCHES "${legacy_v}" AND
       NOT function MATCHES "${kernel_prefix}")
      list(APPEND offenders "${function}")
    endif()
  endif()
endforeach()

# A disassembly without any kernel function means the parse, not the file,
# is broken: refuse to pass on it.
if(kernel_functions EQUAL 0)
  message(FATAL_ERROR "kernels_isa_clean: no tofmcl::core::kernels function "
                      "found in the disassembly of ${OBJECT}")
endif()
list(REMOVE_DUPLICATES offenders)
list(LENGTH offenders count)
if(count GREATER 0)
  string(REPLACE ";" "\n  " listed "${offenders}")
  message(FATAL_ERROR "kernels_isa_clean: ${count} function(s) outside "
                      "tofmcl::core::kernels hold VEX-encoded instructions:"
                      "\n  ${listed}")
endif()
message(STATUS "kernels_isa_clean: ${kernel_functions} kernel functions, "
               "no VEX code outside tofmcl::core::kernels")
