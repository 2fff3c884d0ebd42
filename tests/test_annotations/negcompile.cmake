# Invoked per fixture via add_test (see CMakeLists.txt here): compile
# SRC with FLAGS and check the outcome against EXPECT.
#
#   EXPECT=PASS  — the fixture must compile (positive control, and
#                  every fixture under non-clang compilers where the
#                  annotation macros expand to nothing).
#   EXPECT=FAIL  — the fixture must NOT compile, and the diagnostic
#                  output must contain MATCH, proving the failure is
#                  the contract under test (thread safety, a counter
#                  name) and not an unrelated syntax error.
execute_process(
    COMMAND ${COMPILER} ${FLAGS} -I${INCLUDE_DIR} ${SRC}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(EXPECT STREQUAL "PASS")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "expected ${SRC} to compile, got rc=${rc}:\n${err}")
    endif()
elseif(EXPECT STREQUAL "FAIL")
    if(rc EQUAL 0)
        message(FATAL_ERROR
            "expected ${SRC} to FAIL to compile — the contract it "
            "seeds is not enforced under this compiler")
    endif()
    string(FIND "${out}${err}" "${MATCH}" match_at)
    if(match_at EQUAL -1)
        message(FATAL_ERROR
            "${SRC} failed to compile, but without the expected "
            "diagnostic '${MATCH}':\n${err}")
    endif()
else()
    message(FATAL_ERROR "bad EXPECT='${EXPECT}' (want PASS or FAIL)")
endif()
